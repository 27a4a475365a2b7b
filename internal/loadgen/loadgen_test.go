package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zerotune/internal/artifact"
	"zerotune/internal/core"
	"zerotune/internal/metrics"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// testBodies is a small deterministic corpus.
var testBodies = [][]byte{
	[]byte(`{"q":"a"}`),
	[]byte(`{"q":"bb"}`),
	[]byte(`{"q":"ccc"}`),
}

func baseSpec() Spec {
	return Spec{
		Seed:     42,
		Rate:     500,
		Duration: 2 * time.Second,
		Classes:  []ClassShare{{Name: "gold", Weight: 1}, {Name: "best-effort", Weight: 3}},
		Bodies:   testBodies,
	}
}

// TestScheduleDeterminism is the core seeded-determinism contract: equal
// specs produce deep-equal schedules, and changing only the seed changes the
// schedule.
func TestScheduleDeterminism(t *testing.T) {
	a, err := baseSpec().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseSpec().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different schedules")
	}
	s := baseSpec()
	s.Seed = 43
	c, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Offset != c[i].Offset {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival times")
	}
}

// TestScheduleGolden pins one seeded schedule — every offset, class and
// body — by digest. It was recorded before the shaped arrival processes were
// deleted and proves no Poisson schedule moved with them; a change to the
// generator that moves schedules must update it deliberately.
func TestScheduleGolden(t *testing.T) {
	const (
		wantRequests = 6104
		wantDigest   = "259b0057f3c2cdbece6f2114c1b66614029f05945c7ee0ebc4c975fee54ecda3"
	)
	s := baseSpec()
	s.Seed, s.Rate, s.Duration = 1, 2000, 3*time.Second
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range reqs {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(r.Offset)))
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(r.Class))))
		h.Write([]byte(r.Class))
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(r.Body))))
		h.Write(r.Body)
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(reqs) != wantRequests || got != wantDigest {
		t.Errorf("schedule of %d requests, digest %s; want %d, %s", len(reqs), got, wantRequests, wantDigest)
	}
}

// TestPoissonMeanInterarrival checks the exponential sampler's mean gap is
// 1/λ within statistical tolerance, and that offsets are sorted.
func TestPoissonMeanInterarrival(t *testing.T) {
	s := baseSpec()
	s.Rate = 1000
	s.Duration = 20 * time.Second
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 15000 {
		t.Fatalf("expected ~20000 arrivals at 1000 rps over 20s, got %d", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Offset < reqs[i-1].Offset {
			t.Fatalf("offsets not sorted at %d", i)
		}
	}
	mean := reqs[len(reqs)-1].Offset.Seconds() / float64(len(reqs)-1)
	if want := 1.0 / s.Rate; math.Abs(mean-want) > 0.05*want {
		t.Fatalf("poisson mean interarrival = %gs, want %gs ±5%%", mean, want)
	}
}

// TestClassMixMatchesWeights checks the seeded class draw respects weights.
func TestClassMixMatchesWeights(t *testing.T) {
	s := baseSpec()
	s.Rate = 2000
	s.Duration = 5 * time.Second
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	be := 0
	for _, r := range reqs {
		switch r.Class {
		case "best-effort":
			be++
		case "gold":
		default:
			t.Fatalf("unexpected class %q", r.Class)
		}
	}
	frac := float64(be) / float64(len(reqs))
	if math.Abs(frac-0.75) > 0.05 {
		t.Fatalf("best-effort fraction = %g, want 0.75 ±0.05", frac)
	}
}

// TestSpecValidation rejects nonsense specs, and a schedule too long to
// build: the error names the two flags that asked for it.
func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"zero rate":       func(s *Spec) { s.Rate = 0 },
		"zero duration":   func(s *Spec) { s.Duration = 0 },
		"no bodies":       func(s *Spec) { s.Bodies = nil },
		"negative weight": func(s *Spec) { s.Classes[0].Weight = -1 },
		"NaN rate":        func(s *Spec) { s.Rate = math.NaN() },
		"infinite rate":   func(s *Spec) { s.Rate = math.Inf(1) },
		"NaN weight":      func(s *Spec) { s.Classes[0].Weight = math.NaN() },
		"over the bound":  func(s *Spec) { s.Rate, s.Duration = 1e12, time.Hour },
	}
	for name, mutate := range cases {
		s := baseSpec()
		mutate(&s)
		if _, err := s.Schedule(); err == nil {
			t.Errorf("%s: Schedule accepted invalid spec", name)
		}
	}
	s := baseSpec()
	s.Rate = 2 * maxScheduleRequests / s.Duration.Seconds()
	_, err := s.Schedule()
	if err == nil || !strings.Contains(err.Error(), "-rate") || !strings.Contains(err.Error(), "-duration") {
		t.Errorf("rate × duration of %d requests: err = %v, want one naming -rate and -duration", 2*maxScheduleRequests, err)
	}
}

// TestTraceRoundTrip is the record/replay contract: writing the same seeded
// schedule twice is byte-identical, reading it back reproduces every record
// exactly, and re-recording the replayed schedule reproduces the file —
// byte-for-byte, the property CI's cmp enforces.
func TestTraceRoundTrip(t *testing.T) {
	s := baseSpec()
	s.Duration = 500 * time.Millisecond
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	h := HeaderFromSpec(s)

	var f1, f2 bytes.Buffer
	if err := WriteTrace(&f1, h, reqs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&f2, h, reqs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Fatal("recording the same schedule twice produced different bytes")
	}

	gotH, gotReqs, err := ReadTrace(bytes.NewReader(f1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("trace header mutated: got %+v want %+v", gotH, h)
	}
	if !reflect.DeepEqual(gotReqs, reqs) {
		t.Fatal("trace records did not round-trip (bodies/ordering/classes)")
	}

	// Replay → re-record must reproduce the original file exactly.
	var f3 bytes.Buffer
	if err := WriteTrace(&f3, gotH, gotReqs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f3.Bytes()) {
		t.Fatal("re-recording a replayed trace changed the bytes")
	}
}

// TestTraceRejectsCorruption flips, truncates and extends a valid trace and
// requires every mutation to be detected.
func TestTraceRejectsCorruption(t *testing.T) {
	s := baseSpec()
	s.Duration = 200 * time.Millisecond
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, HeaderFromSpec(s), reqs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mutate := func(name string, f func([]byte) []byte) {
		b := append([]byte(nil), good...)
		if _, _, err := ReadTrace(bytes.NewReader(f(b))); err == nil {
			t.Errorf("%s: corrupt trace accepted", name)
		}
	}
	mutate("flipped body byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	mutate("flipped checksum byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	mutate("truncated mid-record", func(b []byte) []byte { return b[:len(b)*2/3] })
	mutate("truncated trailer", func(b []byte) []byte { return b[:len(b)-4] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xff) })
	mutate("wrong magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("future version", func(b []byte) []byte { b[4] = 99; return b })
}

// TestTraceRejectsForeignFiles: a file that is not a trace is named for what
// it is — another kind of artifact, or no artifact at all (garbage, or a
// trace from before the envelope) — never read as a workload.
func TestTraceRejectsForeignFiles(t *testing.T) {
	var model bytes.Buffer
	if err := artifact.Encode(&model, core.ModelArtifactKind, []byte(`{"model":{}}`)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadTrace(&model)
	if err == nil || !strings.Contains(err.Error(), core.ModelArtifactKind) || !strings.Contains(err.Error(), TraceArtifactKind) {
		t.Errorf("model artifact read as a trace: err = %v, want one naming both kinds", err)
	}
	for name, data := range map[string][]byte{
		"empty":        nil,
		"garbage":      []byte("not a trace at all"),
		"legacy trace": append([]byte("ZTRC\x01"), make([]byte, 64)...),
	} {
		if _, _, err := ReadTrace(bytes.NewReader(data)); !errors.Is(err, artifact.ErrNotArtifact) {
			t.Errorf("%s: err = %v, want artifact.ErrNotArtifact", name, err)
		}
	}
}

// TestTraceBoundsEnforcedOnRead builds well-formed envelopes — the checksum
// is valid — around records no writer here would emit: only checkRecord
// stands between such a file and the replay loop.
func TestTraceBoundsEnforcedOnRead(t *testing.T) {
	ok := traceRecord{OffsetNs: 1, Class: []byte("gold"), Path: []byte("/v1/predict"), Body: []byte("{}")}
	read := func(second traceRecord) error {
		payload, err := json.Marshal(traceFile{Requests: []traceRecord{ok, second}})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := artifact.Encode(&file, TraceArtifactKind, payload); err != nil {
			t.Fatal(err)
		}
		_, _, err = ReadTrace(&file)
		return err
	}
	if err := read(ok); err != nil {
		t.Fatalf("in-bounds records rejected: %v", err)
	}
	for name, mutate := range map[string]func(*traceRecord){
		"negative offset": func(r *traceRecord) { r.OffsetNs = -1 },
		"2 KiB class":     func(r *traceRecord) { r.Class = bytes.Repeat([]byte("c"), 2<<10) },
		"2 KiB path":      func(r *traceRecord) { r.Path = bytes.Repeat([]byte("p"), 2<<10) },
		"oversize body":   func(r *traceRecord) { r.Body = make([]byte, serve.MaxBodyBytes+1) },
	} {
		rec := ok
		mutate(&rec)
		if err := read(rec); err == nil || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("%s: err = %v, want record 1 rejected", name, err)
		}
	}
}

// TestWriteTraceFileKeepsPreviousOnError: a recording that fails its bounds
// returns the error and leaves the file already at the path byte-identical.
func TestWriteTraceFileKeepsPreviousOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ztrc")
	s := baseSpec()
	s.Duration = 100 * time.Millisecond
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	h := HeaderFromSpec(s)
	if err := WriteTraceFile(path, h, reqs); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]Request(nil), reqs...), Request{Path: "/v1/predict", Body: make([]byte, serve.MaxBodyBytes+1)})
	if err := WriteTraceFile(path, h, bad); err == nil {
		t.Fatal("oversize record was recorded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed recording changed the previous trace")
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("failed recording left %d files beside the trace", len(entries)-1)
	}
	if gotH, got, err := ReadTraceFile(path); err != nil || gotH != h || !reflect.DeepEqual(got, reqs) {
		t.Errorf("previous trace no longer reads back: err = %v", err)
	}
}

// TestTraceRoundTripsRawBytes: class and path are bytes on the wire, so a
// record that is not valid UTF-8 comes back exactly, not U+FFFD-repaired.
func TestTraceRoundTripsRawBytes(t *testing.T) {
	reqs := []Request{{Offset: time.Millisecond, Class: "g\xffld\x00", Path: "/v1/\xc3\x28", Body: []byte{0, 0xff, '"'}}}
	var file bytes.Buffer
	if err := WriteTrace(&file, TraceHeader{Seed: 1}, reqs); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Errorf("round trip changed the record: got %q, want %q", got, reqs)
	}
}

// countingTarget succeeds for the first capacity requests and then returns
// 503 — a deterministic saturation model with no wall-clock dependence.
type countingTarget struct {
	mu       sync.Mutex
	served   int
	capacity int
}

func (c *countingTarget) Name() string { return "counting" }

func (c *countingTarget) Call(context.Context, string, []byte) (int, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.served++
	if c.served > c.capacity {
		return http.StatusServiceUnavailable, nil, nil
	}
	return http.StatusOK, nil, nil
}

// TestRunAndStepReport exercises the runner end to end against an in-process
// target and checks the aggregation: counts, goodput, monotone percentiles.
func TestRunAndStepReport(t *testing.T) {
	s := baseSpec()
	s.Rate = 500
	s.Duration = 200 * time.Millisecond
	reqs, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	tgt := &countingTarget{capacity: len(reqs) - 10}
	results, err := Run(context.Background(), reqs, RunOptions{Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	st := buildStep(s.Rate, s.Duration, results)
	if st.Requests != len(reqs) {
		t.Fatalf("step counted %d requests, ran %d", st.Requests, len(reqs))
	}
	if st.OK != len(reqs)-10 || st.StatusCounts["503"] != 10 || st.TransportE != 0 {
		t.Fatalf("ok=%d statusCounts=%v transport=%d, want %d OK and 10×503",
			st.OK, st.StatusCounts, st.TransportE, len(reqs)-10)
	}
	if st.GoodputRPS <= 0 {
		t.Fatal("goodput must be positive")
	}
	p := st.Latency
	if !(p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.P999) {
		t.Fatalf("percentiles not monotone: %+v", p)
	}
	if len(st.PerClass) != 2 {
		t.Fatalf("per-class breakdown missing: %v", st.PerClass)
	}
	rep := Report{Mode: "fixed", Target: "serve", Steps: []StepReport{st}}
	if !strings.Contains(rep.Table(), "p99.9") {
		t.Fatalf("table missing percentile columns:\n%s", rep.Table())
	}
}

// TestBuildStepPercentiles holds the report's percentiles — whole step and
// per class — against the exact sorted quantile of the same results: each
// within the histogram's stated error, monotone, zero for an empty step, and
// the same bytes for the same results (plan reports and CI's record/replay
// cmp steps depend on that).
func TestBuildStepPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	results := make([]Result, 10000)
	exact := map[string][]float64{}
	for i := range results {
		class := []string{"gold", "best-effort"}[i%2]
		svc := 0.4 * math.Exp(0.8*rng.NormFloat64()) * float64(1+i%2) // ms
		lat := svc + 2*rng.Float64()
		results[i] = Result{Seq: i, Class: class, Status: 200,
			Latency: time.Duration(lat * float64(time.Millisecond)),
			Service: time.Duration(svc * float64(time.Millisecond))}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		exact["latency"] = append(exact["latency"], ms(results[i].Latency))
		exact["service"] = append(exact["service"], ms(results[i].Service))
		exact[class] = append(exact[class], ms(results[i].Latency))
	}
	st := buildStep(1000, 10*time.Second, results)
	got := map[string]Percentiles{
		"latency": st.Latency, "service": st.Service,
		"gold": st.PerClass["gold"].Latency, "best-effort": st.PerClass["best-effort"].Latency,
	}
	for name, p := range got {
		for _, q := range reportQuantiles {
			want := metrics.Quantile(exact[name], q.Q)
			if v := p.byName(q.Name); math.Abs(v-want) > obs.QuantileRelErr*want {
				t.Errorf("%s %s = %.4fms, exact %.4fms: outside %.1f%%", name, q.Name, v, want, 100*obs.QuantileRelErr)
			}
		}
		if !(p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.P999) {
			t.Errorf("%s percentiles not monotone: %+v", name, p)
		}
	}

	if empty := buildStep(1000, time.Second, nil); empty.Latency != (Percentiles{}) || empty.Service != (Percentiles{}) {
		t.Errorf("empty step reported percentiles: %+v", empty)
	}

	a, _ := json.Marshal(st)
	b, _ := json.Marshal(buildStep(1000, 10*time.Second, results))
	if !bytes.Equal(a, b) {
		t.Errorf("equal results gave different reports:\n%s\n%s", a, b)
	}
}

// TestRunChargesCoordinatedOmission pins the harness's reason to exist: with
// a slow target and an in-flight cap of 1, later requests cannot be sent on
// time, and the corrected latency (from intended send) must exceed the
// closed-loop service time by roughly the queueing delay.
func TestRunChargesCoordinatedOmission(t *testing.T) {
	reqs := make([]Request, 5)
	for i := range reqs {
		reqs[i] = Request{Offset: time.Duration(i) * time.Millisecond, Path: "/x", Body: []byte("b")}
	}
	slow := sleepyTarget(30 * time.Millisecond)
	results, err := Run(context.Background(), reqs, RunOptions{Target: slow, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.Latency-last.Service < 50*time.Millisecond {
		t.Fatalf("corrected latency %s vs service %s: queueing delay was coordinated away",
			last.Latency, last.Service)
	}
	if last.SendLag < 50*time.Millisecond {
		t.Fatalf("send lag %s should reflect the in-flight-cap backpressure", last.SendLag)
	}
}

// sleepyTarget answers every call with 200 after sleeping its length.
type sleepyTarget time.Duration

func (sleepyTarget) Name() string { return "sleepy" }

func (d sleepyTarget) Call(context.Context, string, []byte) (int, []byte, error) {
	time.Sleep(time.Duration(d))
	return http.StatusOK, nil, nil
}

// TestRunSendsClass: a request's Class rides on its call's context, which
// every serve.Backend sends as X-SLO-Class.
func TestRunSendsClass(t *testing.T) {
	var (
		mu      sync.Mutex
		classes []string
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		classes = append(classes, r.Header.Get(serve.SLOClassHeader))
	})
	reqs := []Request{{Path: "/v1/predict", Class: "gold"}, {Offset: time.Millisecond, Path: "/v1/predict"}}
	if _, err := Run(context.Background(), reqs, RunOptions{Target: HandlerTarget{Handler: h}, MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(classes, ","); got != "gold," {
		t.Fatalf("handler saw classes %q, want \"gold,\"", got)
	}
}

// TestSweepLocatesKnee drives the search through the live oracle against
// the deterministic counting target: the first probe fits within capacity,
// the second blows through it, so the walk must stop there and bisection close
// in on the first rate — every later probe fails too, the target being spent.
func TestSweepLocatesKnee(t *testing.T) {
	s := baseSpec()
	s.Duration = 200 * time.Millisecond
	// The oracle draws each probe's schedule from s at the probe's rate; seed
	// 42 draws 56 requests at 250 rps and 105 at 500 rps over 200ms.
	drawn := func(rate float64) int {
		s := s
		s.Rate = rate
		reqs, err := s.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		return len(reqs)
	}
	const capacity = 60
	n250, n500 := drawn(250), drawn(500)
	if n250 > capacity || n500 <= capacity {
		t.Fatalf("schedules of %d and %d requests do not straddle capacity %d", n250, n500, capacity)
	}
	opts := SearchOptions{P99: time.Second, MinRPS: 250, MaxRPS: 2000, StepDuration: s.Duration}
	c, err := Search(opts, Oracle(context.Background(), s, RunOptions{Target: &countingTarget{capacity: capacity}}))
	if err != nil {
		t.Fatal(err)
	}
	// 250 rps fits within capacity; at 500 rps only what is left of it
	// succeeds → not sustained.
	if len(c.Probes) < 2 || c.Probes[1].RPS != 500 || c.Probes[0].Step.OK != n250 || c.Probes[1].Step.OK != capacity-n250 {
		t.Fatalf("walk did not stop at the first failing rate: %+v", c.Probes)
	}
	if c.MaxRPS != 250 || c.FailRPS <= 250 || c.FailRPS > 250*bracketRatio {
		t.Fatalf("knee bracketed (%g, %g], want (250, %g]", c.MaxRPS, c.FailRPS, 250*bracketRatio)
	}
	c.Scenario = "counting"
	rep := &Report{Search: &opts, Capacity: []Capacity{c}}
	if table := rep.Table(); !strings.Contains(table, "counting      250/s      251/s") {
		t.Fatalf("capacity table missing the knee interval:\n%s", table)
	}

	// A target with headroom sustains the whole bracket: two probes, no failure.
	opts.MinRPS, opts.MaxRPS = 500, 1000
	c, err = Search(opts, Oracle(context.Background(), s, RunOptions{Target: &countingTarget{capacity: 1 << 30}}))
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxRPS != 1000 || c.FailRPS != 0 || len(c.Probes) != 2 {
		t.Fatalf("unsaturated search misreported: max %g, fail %g, %d probes", c.MaxRPS, c.FailRPS, len(c.Probes))
	}
}
