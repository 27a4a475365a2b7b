package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"zerotune/internal/artifact"
	"zerotune/internal/serve"
)

// TraceArtifactKind tags trace payloads inside the artifact envelope
// (internal/artifact: magic, format version, kind tag, SHA-256 over header
// and payload, atomic durable write). The payload is the JSON of traceFile.
const TraceArtifactKind = "zerotune-trace"

// maxTraceString bounds class/path fields, and bodies are bounded by the
// serve tier's own request-body limit: the envelope's checksum says the file
// is what was written, not that what was written is a sane workload.
const maxTraceString = 1 << 10

// TraceHeader carries the workload provenance of a trace: enough to
// re-derive the schedule (seed, rate, horizon) and to label reports, but
// deliberately no timestamps — the file must be a pure function of the
// workload. Fields of older headers (arrival process, CV, diurnal envelope)
// are ignored on read; their records replay as written.
type TraceHeader struct {
	Seed       uint64  `json:"seed"`
	RateRPS    float64 `json:"rate_rps"`
	DurationNs int64   `json:"duration_ns"`
}

// HeaderFromSpec snapshots the schedule-relevant spec fields into a trace
// header.
func HeaderFromSpec(s Spec) TraceHeader {
	return TraceHeader{Seed: s.Seed, RateRPS: s.Rate, DurationNs: int64(s.Duration)}
}

// traceFile is the envelope payload. Marshalling a struct is deterministic
// and nothing here reads a clock, so recording the same seeded schedule twice
// yields byte-identical files, and replaying a recorded trace while
// re-recording reproduces the original file exactly. That is the contract
// CI's `cmp` enforces.
type traceFile struct {
	Header   TraceHeader   `json:"header"`
	Requests []traceRecord `json:"requests"`
}

// traceRecord is one Request on the wire. Class, path and body are byte
// fields (base64 in JSON), so a record round-trips whatever bytes it holds.
type traceRecord struct {
	OffsetNs int64  `json:"offset_ns"`
	Class    []byte `json:"class"`
	Path     []byte `json:"path"`
	Body     []byte `json:"body"`
}

// checkRecord holds one record to the trace bounds, on the way out and on
// the way in.
func checkRecord(i int, r Request) error {
	if r.Offset < 0 {
		return fmt.Errorf("loadgen: trace record %d has negative offset %s", i, r.Offset)
	}
	if len(r.Class) > maxTraceString || len(r.Path) > maxTraceString {
		return fmt.Errorf("loadgen: trace record %d class/path exceeds %d bytes", i, maxTraceString)
	}
	if len(r.Body) > serve.MaxBodyBytes {
		return fmt.Errorf("loadgen: trace record %d body exceeds %d bytes", i, serve.MaxBodyBytes)
	}
	return nil
}

// encodeTrace validates the records and renders the envelope payload.
func encodeTrace(h TraceHeader, reqs []Request) ([]byte, error) {
	f := traceFile{Header: h, Requests: make([]traceRecord, len(reqs))}
	for i, r := range reqs {
		if err := checkRecord(i, r); err != nil {
			return nil, err
		}
		f.Requests[i] = traceRecord{OffsetNs: int64(r.Offset), Class: []byte(r.Class), Path: []byte(r.Path), Body: r.Body}
	}
	payload, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("loadgen: encode trace: %w", err)
	}
	return payload, nil
}

// WriteTrace renders header + requests as a trace artifact on w. Writing to
// a file should go through WriteTraceFile, which is atomic and durable.
func WriteTrace(w io.Writer, h TraceHeader, reqs []Request) error {
	payload, err := encodeTrace(h, reqs)
	if err != nil {
		return err
	}
	return artifact.Encode(w, TraceArtifactKind, payload)
}

// WriteTraceFile durably replaces path with the trace (temp file, fsync,
// atomic rename): an interrupted or rejected recording leaves the previous
// file intact.
func WriteTraceFile(path string, h TraceHeader, reqs []Request) error {
	payload, err := encodeTrace(h, reqs)
	if err == nil {
		err = artifact.WriteFile(path, TraceArtifactKind, payload)
	}
	if err != nil {
		return fmt.Errorf("loadgen: write trace %s: %w", path, err)
	}
	return nil
}

// ReadTrace opens the envelope — anything outside it, traces from before
// the envelope included, is artifact.ErrNotArtifact; any flipped, missing or
// extra byte is an error — and holds every record to the trace bounds, so a
// bad file is never a silently different workload.
func ReadTrace(r io.Reader) (TraceHeader, []Request, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: read trace: %w", err)
	}
	kind, payload, err := artifact.DecodeBytes(data)
	if err != nil {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: read trace: %w", err)
	}
	if kind != TraceArtifactKind {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: read trace: artifact is a %q, not a %q", kind, TraceArtifactKind)
	}
	var f traceFile
	if err := json.Unmarshal(payload, &f); err != nil {
		return TraceHeader{}, nil, fmt.Errorf("loadgen: decode trace: %w", err)
	}
	reqs := make([]Request, len(f.Requests))
	for i, rec := range f.Requests {
		reqs[i] = Request{Offset: time.Duration(rec.OffsetNs), Class: string(rec.Class), Path: string(rec.Path), Body: rec.Body}
		if err := checkRecord(i, reqs[i]); err != nil {
			return TraceHeader{}, nil, err
		}
	}
	return f.Header, reqs, nil
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
		return h, nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, reqs, nil
}
