package artifact

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte(`{"weights":[1,2,3]}`)
	var buf bytes.Buffer
	if err := Encode(&buf, "zerotune-model", payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if kind != "zerotune-model" {
		t.Fatalf("kind = %q", kind)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round-trip mismatch: %q", got)
	}
}

func TestEncodeRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "", nil); err == nil {
		t.Fatal("accepted empty kind")
	}
	if err := Encode(&buf, strings.Repeat("k", maxKindLen+1), nil); err == nil {
		t.Fatal("accepted oversized kind")
	}
}

func TestDecodeLegacyBytes(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("{"), []byte(`{"mask":0,"model":{}}`)} {
		if _, _, err := DecodeBytes(data); !errors.Is(err, ErrNotArtifact) {
			t.Fatalf("legacy bytes %q: err %v, want ErrNotArtifact", data, err)
		}
	}
}

// TestDecodeRejectsEveryTruncation cuts a valid envelope at every length:
// each prefix must produce a descriptive error, never a panic or success.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "ckpt", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodeBytes(data[:cut]); err == nil {
			t.Fatalf("accepted envelope truncated to %d of %d bytes", cut, len(data))
		}
	}
}

// TestDecodeRejectsEveryBitFlip flips one bit in every byte of the envelope:
// corruption anywhere — header or payload — must be rejected.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "ckpt", []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x40
		if _, _, err := DecodeBytes(flipped); err == nil {
			t.Fatalf("accepted envelope with byte %d corrupted", i)
		}
	}
}

func TestDecodeRejectsPayloadChecksumAsErrChecksum(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("checksummed payload bytes")
	if err := Encode(&buf, "ckpt", payload); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0x01 // corrupt the payload, not the header
	if _, _, err := DecodeBytes(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload corruption: err %v, want ErrChecksum", err)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "ckpt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4], data[5] = 0xFF, 0xFF
	_, _, err := DecodeBytes(data)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err %v", err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "ckpt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailing")
	if _, _, err := DecodeBytes(buf.Bytes()); err == nil {
		t.Fatal("accepted trailing garbage")
	}
}

func TestWriteFileReadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := WriteFile(path, "zerotune-model", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "zerotune-model" || string(payload) != "v1" {
		t.Fatalf("round trip: kind=%q payload=%q", kind, payload)
	}
}

// TestWriteFileReplacesAtomically overwrites the same path repeatedly and
// checks a reader only ever sees a complete version, and that no temp files
// are left behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	for i := 0; i < 10; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		if err := WriteFile(path, "m", payload); err != nil {
			t.Fatal(err)
		}
		_, got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("write %d: stale or mixed payload", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp droppings left behind: %v", entries)
	}
}
