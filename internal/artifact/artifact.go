// Package artifact is the durable on-disk envelope for every file the CLI
// writes and later reads back, three kinds in all: trained models
// ("zerotune-model", internal/core), training checkpoints
// ("zerotune-train-checkpoint", cmd/zerotune train) and recorded load traces
// ("zerotune-trace", internal/loadgen). The trained artifact is the crown
// jewel of a zero-shot cost model — it is trained once and then serves unseen
// queries indefinitely — and a trace is the workload a serving result is
// reproduced from, so the file format is built so that a reader can never
// confuse a torn, truncated or bit-rotted file with a valid one, a file of
// one kind can never be read as another, and a writer crash can never destroy
// the previous good version.
//
// Envelope layout (all integers big-endian):
//
//	[4]  magic "ZTAF"
//	[2]  format version (currently 1)
//	[2]  kind length k
//	[k]  kind tag (one of the three above)
//	[8]  payload length n
//	[32] SHA-256 over everything above it (magic through payload length)
//	     followed by the payload, so corruption anywhere is detected
//	[n]  payload bytes
//
// WriteFile is atomic and durable: the envelope is written to a temp file in
// the destination directory, fsynced, renamed over the target, and the
// directory entry is fsynced — a reader sees either the old complete file or
// the new complete file, never a mix, even across a crash.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"zerotune/internal/fault"
)

// magic identifies an artifact envelope; anything not starting with it is
// ErrNotArtifact.
var magic = [4]byte{'Z', 'T', 'A', 'F'}

// Version is the current envelope format version.
const Version = 1

// maxKindLen bounds the kind tag; maxPayload bounds the payload so a corrupt
// header cannot drive a multi-gigabyte allocation.
const (
	maxKindLen = 255
	maxPayload = 1 << 31
)

var (
	// ErrNotArtifact marks bytes that do not start with the envelope magic:
	// garbage, or a file from before the envelope existed.
	ErrNotArtifact = errors.New("artifact: not an artifact envelope")
	// ErrChecksum marks an envelope whose payload does not hash to the
	// recorded digest: torn write, truncation or bit rot.
	ErrChecksum = errors.New("artifact: payload checksum mismatch")
)

// Encode writes one envelope wrapping payload to w.
func Encode(w io.Writer, kind string, payload []byte) error {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return fmt.Errorf("artifact: kind %q length out of range [1,%d]", kind, maxKindLen)
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("artifact: payload of %d bytes exceeds %d limit", len(payload), maxPayload)
	}
	prefix := make([]byte, 0, len(magic)+2+2+len(kind)+8)
	prefix = append(prefix, magic[:]...)
	prefix = binary.BigEndian.AppendUint16(prefix, Version)
	prefix = binary.BigEndian.AppendUint16(prefix, uint16(len(kind)))
	prefix = append(prefix, kind...)
	prefix = binary.BigEndian.AppendUint64(prefix, uint64(len(payload)))
	h := sha256.New()
	h.Write(prefix)
	h.Write(payload)
	header := append(prefix, h.Sum(nil)...)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("artifact: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("artifact: write payload: %w", err)
	}
	return nil
}

// Decode reads one envelope from r, verifies the checksum, and returns the
// kind tag and payload. Bytes not starting with the magic yield
// ErrNotArtifact; a payload that does not match its digest yields an error
// wrapping ErrChecksum.
func Decode(r io.Reader) (kind string, payload []byte, err error) {
	if err := fault.Inject(fault.ArtifactRead); err != nil {
		return "", nil, fmt.Errorf("artifact: read: %w", err)
	}
	var head [len(magic) + 2 + 2]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return "", nil, fmt.Errorf("%w (short header: %v)", ErrNotArtifact, err)
	}
	if !bytes.Equal(head[:len(magic)], magic[:]) {
		return "", nil, ErrNotArtifact
	}
	version := binary.BigEndian.Uint16(head[len(magic):])
	if version == 0 || version > Version {
		return "", nil, fmt.Errorf("artifact: unsupported format version %d (this build reads <= %d)", version, Version)
	}
	kindLen := int(binary.BigEndian.Uint16(head[len(magic)+2:]))
	if kindLen == 0 || kindLen > maxKindLen {
		return "", nil, fmt.Errorf("artifact: corrupt header: kind length %d", kindLen)
	}
	rest := make([]byte, kindLen+8+sha256.Size)
	if _, err := io.ReadFull(r, rest); err != nil {
		return "", nil, fmt.Errorf("artifact: truncated header: %w", err)
	}
	kind = string(rest[:kindLen])
	size := binary.BigEndian.Uint64(rest[kindLen:])
	if size > maxPayload {
		return "", nil, fmt.Errorf("artifact: corrupt header: payload length %d exceeds %d limit", size, maxPayload)
	}
	var want [sha256.Size]byte
	copy(want[:], rest[kindLen+8:])
	payload, err = readExact(r, size)
	if err != nil {
		return "", nil, fmt.Errorf("artifact: truncated payload (want %d bytes): %w", size, err)
	}
	// The digest covers the header prefix too, so a flipped kind byte or
	// length is as detectable as payload rot.
	hh := sha256.New()
	hh.Write(head[:])
	hh.Write(rest[:kindLen+8])
	hh.Write(payload)
	var got [sha256.Size]byte
	hh.Sum(got[:0])
	if got != want {
		return "", nil, fmt.Errorf("%w: stored %x, computed %x", ErrChecksum, want[:8], got[:8])
	}
	return kind, payload, nil
}

// readExact reads exactly size bytes, growing the buffer in bounded chunks so
// a corrupt header claiming gigabytes fails at EOF after reading only what
// exists instead of allocating the lie up front.
func readExact(r io.Reader, size uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(size, chunk))
	for uint64(len(buf)) < size {
		n := size - uint64(len(buf))
		if n > chunk {
			n = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeBytes is Decode over an in-memory envelope, additionally rejecting
// trailing garbage after the payload.
func DecodeBytes(data []byte) (kind string, payload []byte, err error) {
	r := bytes.NewReader(data)
	kind, payload, err = Decode(r)
	if err != nil {
		return "", nil, err
	}
	if r.Len() > 0 {
		return "", nil, fmt.Errorf("artifact: %d trailing bytes after payload", r.Len())
	}
	return kind, payload, nil
}

// WriteFile atomically and durably replaces path with an envelope wrapping
// payload: temp file in the same directory, fsync, rename, directory fsync.
// A crash at any point leaves either the previous file or the new one,
// complete; a concurrent reader never observes a partial write.
func WriteFile(path, kind string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := Encode(tmp, kind, payload); err != nil {
		return cleanup(err)
	}
	// Sync before rename: the rename must never become visible ahead of the
	// data it points at, or a crash window exists where the file is torn.
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("artifact: fsync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it survives a crash. Some
// filesystems refuse to fsync directories; that is reported, not ignored,
// because callers rely on durability.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("artifact: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("artifact: fsync dir %s: %w", dir, err)
	}
	return nil
}

// ReadFile reads and verifies the envelope at path.
func ReadFile(path string) (kind string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return DecodeBytes(data)
}
