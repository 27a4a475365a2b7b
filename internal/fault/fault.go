// Package fault is a stdlib-only, seed-deterministic fault-injection layer.
//
// Production code declares named injection points (Inject calls compiled into
// hot paths); by default they are free of side effects — a single atomic load
// of a nil pointer. Tests — the serve package's chaos drill among them — activate a Registry
// holding per-point Schedules that decide, purely from (seed, point, hit
// counter), whether a given pass-through faults and how: a returned error, an
// injected delay on a pluggable clock, or a panic.
//
// Determinism is the core contract: two registries built from the same seed
// and the same schedules produce the same fault decisions in the same
// per-point order, regardless of wall-clock time or goroutine interleaving
// across points. Every fired fault is recorded in a bounded event log that
// renders identically across runs, which is what lets the chaos drill
// (TestChaosDrill in internal/serve) diff a seed's event logs byte-for-byte.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection point names. These are the stable identifiers production code
// passes to Inject; schedules are keyed by them. Points lists them all; keep
// both in sync with DESIGN.md §11.
const (
	// ArtifactRead fires when decoding a ZTAF artifact envelope.
	ArtifactRead = "artifact.read"
	// RegistrySwap fires when the serve registry loads a model file for swap.
	RegistrySwap = "registry.swap"
	// BatcherFlush fires when the micro-batcher flushes a collected batch.
	BatcherFlush = "batcher.flush"
	// GNNForward fires before a batched GNN forward pass.
	GNNForward = "gnn.forward"
	// CacheAcquire fires before a prediction-cache slot acquisition.
	CacheAcquire = "cache.acquire"
	// CheckpointWrite fires before a training checkpoint is persisted.
	CheckpointWrite = "checkpoint.write"
	// GatewayRoute fires after the gateway picks a replica, before the
	// request is forwarded — an injected error counts as a replica failure,
	// so routing retries and consecutive-failure ejection are chaos-testable
	// without killing real backends.
	GatewayRoute = "gateway.route"
	// GatewayProbe fires before each per-replica health probe of the
	// gateway's pool, letting a seeded storm eject and rejoin replicas
	// deterministically.
	GatewayProbe = "gateway.probe"
)

// Points is every injection point production code declares, in the order
// above: the names a schedule may key on.
var Points = []string{
	ArtifactRead, RegistrySwap, BatcherFlush, GNNForward, CacheAcquire,
	CheckpointWrite, GatewayRoute, GatewayProbe,
}

// Mode selects what an injected fault does to the caller.
type Mode int

const (
	// ModeError makes Inject return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeDelay makes Inject sleep on the registry clock, then succeed.
	ModeDelay
	// ModePanic makes Inject panic with a *PanicValue.
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeDelay:
		return "delay"
	case ModePanic:
		return "panic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrInjected is the sentinel wrapped by every error-mode fault. Callers that
// must distinguish injected failures from organic ones (retry loops, the
// chaos drill) test with IsInjected.
var ErrInjected = errors.New("fault: injected failure")

// IsInjected reports whether err originates from an error-mode injection.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// PanicValue is the value thrown by panic-mode faults, so recover sites can
// attribute the panic to the injection layer.
type PanicValue struct {
	Point string
	Hit   uint64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// Clock abstracts time for delay-mode faults so tests can observe requested
// sleeps without actually waiting.
type Clock interface {
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// RecordingClock is a test Clock that records requested sleeps and returns
// immediately.
type RecordingClock struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (c *RecordingClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.mu.Unlock()
}

// Slept returns a copy of all sleep durations requested so far.
func (c *RecordingClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// Schedule describes when and how one injection point faults. A point holds
// at most one schedule; Install replaces any previous one (the point's hit
// counter keeps running).
//
// A pass-through with 1-based hit counter h faults when all of:
//   - h > After (grace period of clean passes),
//   - fewer than Limit faults have already fired (Limit 0 = unlimited),
//   - Every > 0 and (h-After) is a multiple of Every, OR Prob > 0 and the
//     seeded hash of (seed, point, h) falls below Prob.
//
// Every gives exact periodic schedules ("fail every 3rd read"); Prob gives
// pseudo-random ones that are still a pure function of the seed.
type Schedule struct {
	Point string
	Mode  Mode
	// Prob is the per-hit fault probability in [0, 1].
	Prob float64
	// Every faults deterministically on every Nth eligible hit.
	Every uint64
	// After skips the first N hits entirely.
	After uint64
	// Limit caps the total number of faults fired (0 = unlimited).
	Limit uint64
	// Delay is the sleep for ModeDelay faults.
	Delay time.Duration
	// Err, when non-nil, is wrapped together with ErrInjected in error-mode
	// faults so call sites can match domain sentinels too.
	Err error
}

// Event records one fired fault. Events carry no wall-clock time on purpose:
// the log must be reproducible from the seed alone.
type Event struct {
	Point string
	Hit   uint64
	Mode  Mode
}

func (e Event) String() string {
	return fmt.Sprintf("point=%s hit=%d mode=%s", e.Point, e.Hit, e.Mode)
}

// maxEvents bounds the event log so a hot loop with an aggressive schedule
// cannot grow memory without bound. Overflow is counted, not silently lost.
const maxEvents = 1 << 16

type point struct {
	hits     uint64 // pass-throughs observed (1-based at decision time)
	injected uint64 // faults fired
	sched    *Schedule
}

// Registry holds the fault schedules and per-point hit counters for one
// deterministic run.
type Registry struct {
	seed  uint64
	clock Clock

	mu      sync.Mutex
	points  map[string]*point
	events  []Event
	dropped uint64
}

// New builds a registry whose fault decisions are a pure function of seed.
func New(seed uint64) *Registry {
	return &Registry{seed: seed, clock: realClock{}, points: make(map[string]*point)}
}

// SetClock replaces the clock used by delay-mode faults (default: real time).
func (r *Registry) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c == nil {
		c = realClock{}
	}
	r.clock = c
}

// Install sets the schedule for s.Point, replacing any existing one.
func (r *Registry) Install(s Schedule) {
	if s.Point == "" {
		panic("fault: Install with empty point name")
	}
	sc := s // private copy
	r.mu.Lock()
	defer r.mu.Unlock()
	r.point(s.Point).sched = &sc
}

// Clear removes the schedule for one point. Hit counters are preserved so the
// event log stays monotonic per point.
func (r *Registry) Clear(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		p.sched = nil
	}
}

// ClearAll removes every schedule, leaving counters and events intact.
func (r *Registry) ClearAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.points {
		p.sched = nil
	}
}

// point returns (creating if needed) the state for name. Caller holds r.mu.
func (r *Registry) point(name string) *point {
	p, ok := r.points[name]
	if !ok {
		p = &point{}
		r.points[name] = p
	}
	return p
}

// Hits returns how many times the named point has been passed through.
func (r *Registry) Hits(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.hits
	}
	return 0
}

// Injected returns how many faults have fired at the named point.
func (r *Registry) Injected(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.injected
	}
	return 0
}

// Events returns a copy of the fired-fault log in per-point deterministic
// order: sorted by (point, hit). Cross-point arrival order is a scheduling
// artifact and deliberately not part of the reproducibility contract.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	evs := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Point != evs[j].Point {
			return evs[i].Point < evs[j].Point
		}
		return evs[i].Hit < evs[j].Hit
	})
	return evs
}

// Dropped reports how many events were discarded after the log filled.
func (r *Registry) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DumpEvents renders the event log, one event per line, in the deterministic
// order defined by Events. Byte-identical across same-seed runs.
func (r *Registry) DumpEvents() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Inject passes through the named point: it advances the point's hit counter
// and, if the installed schedule elects this hit, fires the fault. Error-mode
// faults return a non-nil error; delay-mode faults sleep on the registry
// clock and return nil; panic-mode faults panic with *PanicValue.
func (r *Registry) Inject(name string) error {
	r.mu.Lock()
	p := r.point(name)
	p.hits++
	hit := p.hits
	s := p.sched
	if s == nil || !r.elect(s, p, hit) {
		r.mu.Unlock()
		return nil
	}
	p.injected++
	if uint64(len(r.events)) < maxEvents {
		r.events = append(r.events, Event{Point: name, Hit: hit, Mode: s.Mode})
	} else {
		r.dropped++
	}
	mode, delay, werr, clock := s.Mode, s.Delay, s.Err, r.clock
	r.mu.Unlock()

	switch mode {
	case ModeDelay:
		clock.Sleep(delay)
		return nil
	case ModePanic:
		panic(&PanicValue{Point: name, Hit: hit})
	default:
		if werr != nil {
			return fmt.Errorf("%w at %s (hit %d): %w", ErrInjected, name, hit, werr)
		}
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, name, hit)
	}
}

// elect decides whether hit h at point p faults under schedule s.
// Caller holds r.mu.
func (r *Registry) elect(s *Schedule, p *point, h uint64) bool {
	if h <= s.After {
		return false
	}
	if s.Limit > 0 && p.injected >= s.Limit {
		return false
	}
	if s.Every > 0 {
		return (h-s.After)%s.Every == 0
	}
	if s.Prob <= 0 {
		return false
	}
	return Uniform(r.seed, s.Point, h) < s.Prob
}

// Uniform maps (seed, point, hit) to a uniform float64 in [0, 1). Exposed so
// harnesses (the chaos drill) can derive per-point parameters from the same
// seed stream they hand the registry.
func Uniform(seed uint64, pointName string, hit uint64) float64 {
	x := splitmix64(splitmix64(seed^fnv64(pointName)) + hit)
	return float64(x>>11) / (1 << 53)
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator: a cheap,
// well-mixed bijection on uint64 used to turn (seed, point, hit) into an
// independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fnv64 is FNV-1a over the point name, decorrelating points that share a seed.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// active is the process-wide registry consulted by the package-level Inject.
// nil (the default) means every injection point is a no-op.
var active atomic.Pointer[Registry]

// Activate installs r as the process-wide registry. Passing nil deactivates.
func Activate(r *Registry) { active.Store(r) }

// Deactivate removes the process-wide registry; all points become no-ops.
func Deactivate() { active.Store(nil) }

// Inject is the call production code compiles into injection points. With no
// active registry it is a single atomic load and returns nil.
func Inject(name string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Inject(name)
}
