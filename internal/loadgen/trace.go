package loadgen

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"zerotune/internal/serve"
)

// Trace file format (versioned, little-endian, checksummed):
//
//	magic   "ZTRC" (4 bytes)
//	version uint8 (currently 1)
//	hlen    uint32 — length of the JSON header
//	header  hlen bytes of canonical JSON (TraceHeader)
//	records, each:
//	    tag      'R' (1 byte)
//	    offset   uint64 — intended send time, nanoseconds from run start
//	    classLen uint16, class bytes
//	    pathLen  uint16, path bytes
//	    bodyLen  uint32, body bytes
//	trailer:
//	    tag      'E' (1 byte)
//	    count    uint64 — number of records (truncation check)
//	    checksum uint64 — FNV-1a over every preceding byte of the file
//
// The writer is fully deterministic — no wall-clock timestamps anywhere —
// so recording the same seeded schedule twice yields byte-identical files,
// and replaying a recorded trace while re-recording reproduces the original
// file exactly. That is the contract CI's `cmp` enforces.

// traceMagic and traceVersion identify the on-disk format.
var traceMagic = [4]byte{'Z', 'T', 'R', 'C'}

const traceVersion = 1

// maxTraceString bounds class/path fields, and bodies are bounded by the
// serve tier's own request-body limit, so a hostile trace cannot allocate
// unbounded memory during replay.
const maxTraceString = 1 << 10

// TraceHeader carries the workload provenance of a trace: enough to
// re-derive the schedule (seed, process, rate) and to label reports, but
// deliberately no timestamps — the file must be a pure function of the
// workload.
type TraceHeader struct {
	Seed             uint64  `json:"seed"`
	Arrival          string  `json:"arrival"`
	RateRPS          float64 `json:"rate_rps"`
	CV               float64 `json:"cv,omitempty"`
	DurationNs       int64   `json:"duration_ns"`
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
	DiurnalPeriodNs  int64   `json:"diurnal_period_ns,omitempty"`
	Note             string  `json:"note,omitempty"`
}

// HeaderFromSpec snapshots the schedule-relevant spec fields into a trace
// header.
func HeaderFromSpec(s Spec) TraceHeader {
	return TraceHeader{
		Seed:             s.Seed,
		Arrival:          string(s.Arrival),
		RateRPS:          s.Rate,
		CV:               s.CV,
		DurationNs:       int64(s.Duration),
		DiurnalAmplitude: s.DiurnalAmplitude,
		DiurnalPeriodNs:  int64(s.DiurnalPeriod),
	}
}

// checksumWriter hashes every byte on its way to the underlying writer.
type checksumWriter struct {
	w   io.Writer
	sum hash64
}

type hash64 interface {
	io.Writer
	Sum64() uint64
}

func (c *checksumWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	_, _ = c.sum.Write(p[:n])
	return n, err
}

// WriteTrace renders header + requests in the versioned trace format.
func WriteTrace(w io.Writer, h TraceHeader, reqs []Request) error {
	bw := bufio.NewWriter(w)
	cw := &checksumWriter{w: bw, sum: fnv.New64a()}
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("loadgen: encode trace header: %w", err)
	}
	if _, err := cw.Write(traceMagic[:]); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{traceVersion}); err != nil {
		return err
	}
	var scratch [8]byte
	writeU := func(v uint64, n int) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}
	if err := writeU(uint64(len(hdr)), 4); err != nil {
		return err
	}
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	for i, r := range reqs {
		if r.Offset < 0 {
			return fmt.Errorf("loadgen: trace record %d has negative offset %s", i, r.Offset)
		}
		if len(r.Class) > maxTraceString || len(r.Path) > maxTraceString {
			return fmt.Errorf("loadgen: trace record %d class/path exceeds %d bytes", i, maxTraceString)
		}
		if len(r.Body) > serve.MaxBodyBytes {
			return fmt.Errorf("loadgen: trace record %d body exceeds %d bytes", i, serve.MaxBodyBytes)
		}
		if _, err := cw.Write([]byte{'R'}); err != nil {
			return err
		}
		if err := writeU(uint64(r.Offset), 8); err != nil {
			return err
		}
		if err := writeU(uint64(len(r.Class)), 2); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, r.Class); err != nil {
			return err
		}
		if err := writeU(uint64(len(r.Path)), 2); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, r.Path); err != nil {
			return err
		}
		if err := writeU(uint64(len(r.Body)), 4); err != nil {
			return err
		}
		if _, err := cw.Write(r.Body); err != nil {
			return err
		}
	}
	if _, err := cw.Write([]byte{'E'}); err != nil {
		return err
	}
	if err := writeU(uint64(len(reqs)), 8); err != nil {
		return err
	}
	// The checksum covers everything before it, itself excluded.
	sum := cw.sum.Sum64()
	binary.LittleEndian.PutUint64(scratch[:], sum)
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile writes the trace to path (0644, truncating).
func WriteTraceFile(path string, h TraceHeader, reqs []Request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, h, reqs); err != nil {
		f.Close()
		return fmt.Errorf("loadgen: write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("loadgen: close trace %s: %w", path, err)
	}
	return nil
}

// checksumReader hashes every byte read.
type checksumReader struct {
	r   io.Reader
	sum hash64
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	_, _ = c.sum.Write(p[:n])
	return n, err
}

// ReadTrace parses and validates a trace: magic, version, structure, record
// count and checksum. Any flipped or missing byte is an error, never a
// silently different workload.
func ReadTrace(r io.Reader) (TraceHeader, []Request, error) {
	var h TraceHeader
	cr := &checksumReader{r: bufio.NewReader(r), sum: fnv.New64a()}
	var magic [5]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return h, nil, fmt.Errorf("loadgen: read trace magic: %w", err)
	}
	if [4]byte(magic[:4]) != traceMagic {
		return h, nil, fmt.Errorf("loadgen: not a trace file (magic %q)", magic[:4])
	}
	if magic[4] != traceVersion {
		return h, nil, fmt.Errorf("loadgen: unsupported trace version %d (want %d)", magic[4], traceVersion)
	}
	var scratch [8]byte
	readU := func(n int) (uint64, error) {
		scratch = [8]byte{}
		if _, err := io.ReadFull(cr, scratch[:n]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	hlen, err := readU(4)
	if err != nil {
		return h, nil, fmt.Errorf("loadgen: read trace header length: %w", err)
	}
	if hlen > 1<<20 {
		return h, nil, fmt.Errorf("loadgen: trace header of %d bytes is implausible", hlen)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return h, nil, fmt.Errorf("loadgen: read trace header: %w", err)
	}
	if err := json.Unmarshal(hdr, &h); err != nil {
		return h, nil, fmt.Errorf("loadgen: decode trace header: %w", err)
	}

	var reqs []Request
	for {
		var tag [1]byte
		if _, err := io.ReadFull(cr, tag[:]); err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace (no trailer): %w", err)
		}
		if tag[0] == 'E' {
			break
		}
		if tag[0] != 'R' {
			return h, nil, fmt.Errorf("loadgen: corrupt trace: record tag %q", tag[0])
		}
		off, err := readU(8)
		if err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		clen, err := readU(2)
		if err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		if clen > maxTraceString {
			return h, nil, fmt.Errorf("loadgen: corrupt trace: class of %d bytes", clen)
		}
		class := make([]byte, clen)
		if _, err := io.ReadFull(cr, class); err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		plen, err := readU(2)
		if err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		if plen > maxTraceString {
			return h, nil, fmt.Errorf("loadgen: corrupt trace: path of %d bytes", plen)
		}
		path := make([]byte, plen)
		if _, err := io.ReadFull(cr, path); err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		blen, err := readU(4)
		if err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		if blen > serve.MaxBodyBytes {
			return h, nil, fmt.Errorf("loadgen: corrupt trace: body of %d bytes", blen)
		}
		body := make([]byte, blen)
		if _, err := io.ReadFull(cr, body); err != nil {
			return h, nil, fmt.Errorf("loadgen: truncated trace record: %w", err)
		}
		reqs = append(reqs, Request{
			Offset: time.Duration(off),
			Class:  string(class),
			Path:   string(path),
			Body:   body,
		})
	}
	count, err := readU(8)
	if err != nil {
		return h, nil, fmt.Errorf("loadgen: truncated trace trailer: %w", err)
	}
	if count != uint64(len(reqs)) {
		return h, nil, fmt.Errorf("loadgen: trace trailer says %d records, file holds %d", count, len(reqs))
	}
	want := cr.sum.Sum64() // everything up to (excluding) the checksum field
	got, err := readU(8)
	if err != nil {
		return h, nil, fmt.Errorf("loadgen: truncated trace checksum: %w", err)
	}
	if got != want {
		return h, nil, fmt.Errorf("loadgen: trace checksum mismatch: file says %016x, content hashes to %016x", got, want)
	}
	// Reject trailing garbage: a trace is one schedule, not a container.
	var extra [1]byte
	if _, err := cr.r.Read(extra[:]); err != io.EOF {
		return h, nil, fmt.Errorf("loadgen: trailing data after trace checksum")
	}
	return h, reqs, nil
}

// ReadTraceFile opens and parses the trace at path.
func ReadTraceFile(path string) (TraceHeader, []Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceHeader{}, nil, err
	}
	defer f.Close()
	h, reqs, err := ReadTrace(f)
	if err != nil {
		return h, nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return h, reqs, nil
}
