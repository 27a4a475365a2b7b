package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/artifact"
	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/queryplan"
)

// ModelEntry is one immutable model revision. The registry swaps a pointer
// to it; in-flight requests keep using the entry they captured, so a swap
// never blocks or corrupts running predictions.
type ModelEntry struct {
	ZT       *core.ZeroTune
	ID       string // content hash of the model bytes, "sha256:<12 hex>"
	Path     string // source file, empty for in-memory models
	Gen      uint64 // monotonically increasing swap counter
	LoadedAt time.Time
	// predictTail is what follows the cached flag in every answer of this
	// revision (see appendPredictHead): `,"model_id":<ID as JSON>}` and the
	// newline, the ID escaped as encoding/json escapes it with HTML escaping
	// off.
	predictTail []byte
}

// newModelEntry is the entry of zt under id, read from path.
func newModelEntry(zt *core.ZeroTune, id, path string) *ModelEntry {
	var tail bytes.Buffer
	tail.WriteString(`,"model_id":`)
	enc := json.NewEncoder(&tail)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(id) // a string always encodes: invalid UTF-8 becomes U+FFFD
	tail.Truncate(tail.Len() - 1)
	tail.WriteString("}\n")
	return &ModelEntry{ZT: zt, ID: id, Path: path, LoadedAt: time.Now(), predictTail: tail.Bytes()}
}

// Engine names the numeric representation of the engine that answers
// predictions on this revision: "f32", or "f64" for a model built by hand
// and installed uncompiled.
func (e *ModelEntry) Engine() string { return e.ZT.Compiled().Engine.String() }

// Registry holds the currently served model behind an atomic pointer and
// implements the load-validate-swap reload protocol: the candidate file is
// fully parsed, structurally validated (core.Load), probe-evaluated and
// compiled — the fused engine's accuracy gate included — before the pointer
// moves, so a truncated, corrupt or gate-refused file leaves the old model
// serving untouched.
type Registry struct {
	cur atomic.Pointer[ModelEntry]
	gen atomic.Uint64
	mu  sync.Mutex // serializes reloads; reads are lock-free
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Current returns the active model revision, or nil before the first
// install.
func (r *Registry) Current() *ModelEntry { return r.cur.Load() }

// Install activates an in-memory model (tests, embedded serving). The id
// may be empty; a generation-derived one is assigned. The model serves on
// the engine it carries (see core.ZeroTune.Compiled).
func (r *Registry) Install(zt *core.ZeroTune, id, path string) *ModelEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		id = fmt.Sprintf("mem:%d", r.gen.Load()+1)
	}
	e := newModelEntry(zt, id, path)
	e.Gen = r.gen.Add(1)
	r.cur.Store(e)
	return e
}

// reloadAttempts bounds how many times a transient reload failure is retried
// before the error surfaces to the caller; retries are spaced by a short
// jittered exponential backoff so a burst of reloads against a file being
// replaced does not hammer the filesystem in lockstep.
const reloadAttempts = 3

// LoadFile reads, validates, compiles and probe-evaluates a model file
// without swapping it in. Transient failures — a checksum mismatch (the file
// was replaced between open and read, or a non-atomic writer was mid-flight)
// or an injected fault — are retried with jittered backoff; structural
// errors (bad JSON, failed probe, refused accuracy gate) surface immediately.
func (r *Registry) LoadFile(path string) (*ModelEntry, error) {
	var e *ModelEntry
	var err error
	for attempt := 0; attempt < reloadAttempts; attempt++ {
		if attempt > 0 {
			sleepBackoff(attempt - 1)
		}
		e, err = r.loadFileOnce(path)
		if err == nil {
			return e, nil
		}
		if !errors.Is(err, artifact.ErrChecksum) && !fault.IsInjected(err) {
			return nil, err
		}
	}
	return nil, err
}

// sleepBackoff sleeps a jittered exponential backoff: uniform in
// (base/2, base] with base = 1ms·2^attempt. Jitter decorrelates concurrent
// retriers; the tiny base keeps the predict path's stale-entry retries well
// inside typical request deadlines.
func sleepBackoff(attempt int) {
	if attempt > 6 {
		attempt = 6
	}
	base := time.Millisecond << attempt
	time.Sleep(base/2 + time.Duration(rand.Int63n(int64(base/2)+1)))
}

func (r *Registry) loadFileOnce(path string) (*ModelEntry, error) {
	if err := fault.Inject(fault.RegistrySwap); err != nil {
		return nil, fmt.Errorf("serve: load model: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read model: %w", err)
	}
	// core.Load compiles, and its accuracy gate is part of validation: a
	// compiled model that disagrees with its own float64 reference beyond the
	// budget never swaps in.
	zt, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if err := probe(zt); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return newModelEntry(zt, fmt.Sprintf("sha256:%x", sum[:6]), path), nil
}

// Swap validates the file at path and atomically makes it the served
// model, returning the displaced and the new entries.
func (r *Registry) Swap(path string) (old, cur *ModelEntry, err error) {
	e, err := r.LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old = r.cur.Load()
	e.Gen = r.gen.Add(1)
	r.cur.Store(e)
	return old, e, nil
}

// probe runs one end-to-end forward pass on a tiny built-in plan so a model
// that decodes and validates but still crashes (or yields non-finite costs)
// is rejected before it ever serves traffic.
func probe(zt *core.ZeroTune) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: model probe panicked: %v", r)
		}
	}()
	c, err := cluster.New(1, cluster.SeenTypes(), 10)
	if err != nil {
		return err
	}
	p := queryplan.NewPQP(queryplan.SpikeDetection(10_000))
	pred, err := zt.Predict(context.Background(), p, c)
	if err != nil {
		return fmt.Errorf("serve: model probe: %w", err)
	}
	if !finite(pred.LatencyMs) || !finite(pred.ThroughputEPS) {
		return fmt.Errorf("serve: model probe produced non-finite costs (lat=%v tpt=%v)",
			pred.LatencyMs, pred.ThroughputEPS)
	}
	return nil
}

func finite(v float64) bool { return v == v && v < 1e300 && v > -1e300 }
