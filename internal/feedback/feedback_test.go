package feedback

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/obs"
	"zerotune/internal/workload"
)

// --- reservoir -------------------------------------------------------------

func mkSample(i int) Sample {
	return Sample{
		Fingerprint:       fmt.Sprintf("fp-%04d", i),
		ObservedLatencyMs: float64(i + 1),
	}
}

func fingerprints(samples []Sample) []string {
	out := make([]string, len(samples))
	for i, s := range samples {
		out[i] = s.Fingerprint
	}
	return out
}

func TestReservoirDeterministic(t *testing.T) {
	fill := func(seed uint64) []string {
		st := NewStore(8, seed, nil)
		for i := 0; i < 200; i++ {
			st.Record(mkSample(i))
		}
		return fingerprints(st.Snapshot())
	}
	a, b := fill(42), fill(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(fill(43)) {
		t.Fatal("different seeds retained the identical set (suspicious eviction stream)")
	}
}

func TestReservoirBoundedAndCounted(t *testing.T) {
	st := NewStore(4, 1, nil)
	for i := 0; i < 50; i++ {
		st.Record(mkSample(i))
		if st.Len() > 4 {
			t.Fatalf("reservoir exceeded capacity: %d", st.Len())
		}
	}
	if st.Total() != 50 || st.Seen() != 50 {
		t.Fatalf("counters: total=%d seen=%d", st.Total(), st.Seen())
	}
	drained := st.Drain()
	if len(drained) != 4 {
		t.Fatalf("drained %d, want 4", len(drained))
	}
	if st.Len() != 0 || st.Seen() != 0 {
		t.Fatalf("drain did not reset: len=%d seen=%d", st.Len(), st.Seen())
	}
	if st.Total() != 50 {
		t.Fatalf("lifetime total reset by drain: %d", st.Total())
	}
	// Refill after drain replays the same eviction stream as a fresh store.
	st.Record(mkSample(0))
	fresh := NewStore(4, 1, nil)
	fresh.Record(mkSample(0))
	if fmt.Sprint(fingerprints(st.Snapshot())) != fmt.Sprint(fingerprints(fresh.Snapshot())) {
		t.Fatal("post-drain stream differs from a fresh store")
	}
}

// --- drift math ------------------------------------------------------------

func TestMAPEHandComputed(t *testing.T) {
	// |110-100|/100 = 0.1, |90-100|/100 = 0.1 → mean 0.1.
	if got := MAPE([]float64{110, 90}, []float64{100, 100}); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	// Pairs with observed == 0 are skipped: only |50-100|/100 remains.
	if got := MAPE([]float64{7, 50}, []float64{0, 100}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MAPE with zero obs = %v, want 0.5", got)
	}
	if got := MAPE(nil, nil); !math.IsNaN(got) {
		t.Fatalf("empty MAPE = %v, want NaN", got)
	}
}

func TestPearsonHandComputed(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{2, 4, 6}, 1},
		{[]float64{1, 2, 3}, []float64{6, 4, 2}, -1},
		// dx=[-1.5,-0.5,0.5,1.5], dy=[-0.5,-1.5,1.5,0.5]:
		// sxy=3, sxx=syy=5 → r = 3/5.
		{[]float64{1, 2, 3, 4}, []float64{2, 1, 4, 3}, 0.6},
	}
	for _, c := range cases {
		if got := Pearson(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Pearson(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if got := Pearson([]float64{1}, []float64{1}); !math.IsNaN(got) {
		t.Fatalf("Pearson of one pair = %v, want NaN", got)
	}
	if got := Pearson([]float64{5, 5, 5}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Fatalf("Pearson of constant series = %v, want NaN", got)
	}
}

func TestDetectorTripsOnMAPE(t *testing.T) {
	var trips int
	d := NewDetector(DetectorConfig{
		Window: 8, MinSamples: 4, MAPEThreshold: 0.5,
		OnTrip: func() { trips++ },
	})
	// pred = 2×obs → window MAPE = 1.0 > 0.5 once MinSamples fill.
	for i := 1; i <= 4; i++ {
		d.Observe(float64(2*i), float64(i))
	}
	if trips != 1 || d.Trips() != 1 {
		t.Fatalf("trips = %d / %d, want 1", trips, d.Trips())
	}
	// The window reset on trip: a second trip needs MinSamples fresh pairs.
	if _, _, n := d.Stats(); n != 0 {
		t.Fatalf("window not reset after trip: n=%d", n)
	}
	d.Observe(200, 100)
	if d.Trips() != 1 {
		t.Fatal("tripped again before the window refilled")
	}
}

// TestDetectorQErrorGauges: the window's median and p95 q-error are
// exported on the registry's page, and a window reset by a trip reads 0.
func TestDetectorQErrorGauges(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDetector(DetectorConfig{Window: 8, MinSamples: 8, MAPEThreshold: 5, Registry: reg})
	qerrors := func() (q50, q95 float64) {
		t.Helper()
		samples, err := reg.Samples()
		if err != nil {
			t.Fatal(err)
		}
		q50, ok50 := obs.FindSample(samples, "zerotune_drift_qerror", obs.L("quantile", "0.5"))
		q95, ok95 := obs.FindSample(samples, "zerotune_drift_qerror", obs.L("quantile", "0.95"))
		if !ok50 || !ok95 {
			t.Fatal("zerotune_drift_qerror quantiles not exported")
		}
		return q50, q95
	}
	// (predicted, observed) with q-errors 1, 1, 1, 2, 2, 4, 4, 10: the median
	// interpolates 2 and 2, the p95 sits 0.65 of the way from 4 to 10. The
	// window MAPE is 1.78, under the threshold.
	for _, p := range [][2]float64{{1, 1}, {2, 2}, {3, 3}, {2, 1}, {1, 2}, {4, 1}, {1, 4}, {10, 1}} {
		d.Observe(p[0], p[1])
	}
	if q50, q95 := qerrors(); math.Abs(q50-2) > 1e-12 || math.Abs(q95-7.9) > 1e-12 {
		t.Errorf("q-error gauges: median %v, p95 %v; want 2, 7.9", q50, q95)
	}
	// 100× off replaces (1, 1): the window MAPE reaches 14.2 and trips.
	d.Observe(100, 1)
	if d.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", d.Trips())
	}
	if q50, q95 := qerrors(); q50 != 0 || q95 != 0 {
		t.Errorf("reset window reads median %v, p95 %v; want 0, 0", q50, q95)
	}
}

func TestDetectorPearsonFloor(t *testing.T) {
	var trips int
	d := NewDetector(DetectorConfig{
		Window: 8, MinSamples: 4, MAPEThreshold: 10, PearsonFloor: 0.5,
		OnTrip: func() { trips++ },
	})
	// Well-scaled (tiny MAPE) but perfectly anti-correlated: r = −1 < 0.5.
	obs := []float64{100, 101, 102, 103}
	pred := []float64{103, 102, 101, 100}
	for i := range obs {
		d.Observe(pred[i], obs[i])
	}
	if trips != 1 {
		t.Fatalf("correlation trigger did not fire: trips=%d", trips)
	}
}

func TestDetectorIgnoresNonFinite(t *testing.T) {
	d := NewDetector(DetectorConfig{Window: 4, MinSamples: 2})
	d.Observe(math.NaN(), 1)
	d.Observe(1, math.Inf(1))
	if _, _, n := d.Stats(); n != 0 {
		t.Fatalf("non-finite pairs entered the window: n=%d", n)
	}
}

func TestSplitSamplesDeterministicAndNonEmpty(t *testing.T) {
	samples := make([]Sample, 20)
	for i := range samples {
		samples[i] = mkSample(i)
	}
	t1, h1 := splitSamples(samples, 0.25, 9)
	t2, h2 := splitSamples(samples, 0.25, 9)
	if fmt.Sprint(fingerprints(t1)) != fmt.Sprint(fingerprints(t2)) ||
		fmt.Sprint(fingerprints(h1)) != fmt.Sprint(fingerprints(h2)) {
		t.Fatal("split not deterministic for a fixed seed")
	}
	if len(t1)+len(h1) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(t1), len(h1), len(samples))
	}
	// Both sides must be non-empty even at extreme fractions.
	for _, frac := range []float64{0.0001, 0.9999} {
		tr, ho := splitSamples(samples[:2], frac, 1)
		if len(tr) == 0 || len(ho) == 0 {
			t.Fatalf("frac %v left a side empty: train=%d holdout=%d", frac, len(tr), len(ho))
		}
	}
}

// --- learner ---------------------------------------------------------------

var (
	ftModelOnce sync.Once
	ftModel     *core.ZeroTune
	ftItems     []*workload.Item
	ftModelErr  error
)

// tinyModel trains one small model for the package's learner tests.
func tinyModel(t *testing.T) (*core.ZeroTune, []*workload.Item) {
	t.Helper()
	ftModelOnce.Do(func() {
		gen := workload.NewSeenGenerator(7)
		items, err := gen.Generate(workload.SeenRanges().Structures, 40)
		if err != nil {
			ftModelErr = err
			return
		}
		opts := core.DefaultTrainOptions()
		opts.Hidden, opts.EncDepth, opts.HeadHidden = 12, 1, 12
		opts.Epochs = 2
		opts.Seed = 7
		ftModel, _, ftModelErr = core.Train(context.Background(), items, opts)
		ftItems = items
	})
	if ftModelErr != nil {
		t.Fatal(ftModelErr)
	}
	return ftModel, ftItems
}

// stubPromoter is an in-memory serving layer: it loads whatever artifact is
// promoted and bumps a generation counter, like serve.Registry does.
type stubPromoter struct {
	mu   sync.Mutex
	zt   *core.ZeroTune
	path string
	gen  uint64
}

func (p *stubPromoter) CurrentModel() (*core.ZeroTune, string, uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.zt, p.path, p.gen, nil
}

func (p *stubPromoter) PromoteModel(path string) (uint64, error) {
	zt, err := core.LoadFile(path)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.zt, p.path, p.gen = zt, path, p.gen+1
	return p.gen, nil
}

// feedStore fills st with n prediction-vs-observed samples derived from
// labelled workload items (observed = ground-truth labels).
func feedStore(st *Store, items []*workload.Item, n int) {
	for i := 0; i < n; i++ {
		it := items[i%len(items)]
		st.Record(Sample{
			Fingerprint:            fmt.Sprintf("fp-%d", i),
			Plan:                   it.Plan,
			Cluster:                it.Cluster,
			PredictedLatencyMs:     it.LatencyMs * 1.5,
			PredictedThroughputEPS: it.ThroughputEPS,
			ObservedLatencyMs:      it.LatencyMs,
			ObservedThroughputEPS:  it.ThroughputEPS,
		})
	}
}

func learnerFixture(t *testing.T) (*Learner, *Store, *stubPromoter) {
	t.Helper()
	zt, items := tinyModel(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "model.json")
	if err := zt.SaveFile(base); err != nil {
		t.Fatal(err)
	}
	cur, err := core.LoadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPromoter{zt: cur, path: base, gen: 1}
	st := NewStore(64, 1, nil)
	l, err := NewLearner(Config{
		Store: st, Promoter: p, Dir: dir,
		MinSamples: 4, Epochs: 1, Seed: 1,
		// The test exercises promote/rollback mechanics, not model quality:
		// accept any candidate the tiny fine-tune produces.
		MaxShadowRegress: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedStore(st, items, 12)
	return l, st, p
}

func TestRunOnceRequiresSamples(t *testing.T) {
	zt, _ := tinyModel(t)
	p := &stubPromoter{zt: zt, path: "x", gen: 1}
	l, err := NewLearner(Config{Store: NewStore(8, 1, nil), Promoter: p, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunOnce(context.Background()); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("want ErrNotEnoughSamples, got %v", err)
	}
}

func TestLearnerRequiresPromoter(t *testing.T) {
	if _, err := NewLearner(Config{Store: NewStore(8, 1, nil)}); !errors.Is(err, ErrNoPromoter) {
		t.Fatalf("want ErrNoPromoter, got %v", err)
	}
}

func TestRunOncePromotes(t *testing.T) {
	l, st, p := learnerFixture(t)
	rep, err := l.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("RunOnce: %v (report %+v)", err, rep)
	}
	if !rep.Promoted || rep.RolledBack {
		t.Fatalf("want promotion, got %+v", rep)
	}
	if rep.Gen != 2 || p.gen != 2 {
		t.Fatalf("generation not bumped: rep=%d promoter=%d", rep.Gen, p.gen)
	}
	if rep.CandidatePath == "" {
		t.Fatal("no candidate artifact recorded")
	}
	if st.Len() != 0 {
		t.Fatalf("store not drained: %d", st.Len())
	}
	runs, promotions, rollbacks, _ := l.Counts()
	if runs != 1 || promotions != 1 || rollbacks != 0 {
		t.Fatalf("counts: runs=%d promotions=%d rollbacks=%d", runs, promotions, rollbacks)
	}
}

func TestRunOnceRollsBackOnPostPromoteFault(t *testing.T) {
	l, _, p := learnerFixture(t)
	basePath := p.path

	reg := fault.New(1)
	reg.Install(fault.Schedule{Point: fault.FeedbackPromote, Mode: fault.ModeError, Every: 1})
	fault.Activate(reg)
	defer fault.Deactivate()

	rep, err := l.RunOnce(context.Background())
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("want ErrRollback, got %v", err)
	}
	if !rep.RolledBack || rep.Promoted {
		t.Fatalf("want rollback, got %+v", rep)
	}
	// The swap-back is itself a promotion in the registry sense: generation
	// advances, but the artifact is the pre-candidate one again.
	if p.path != basePath {
		t.Fatalf("rollback restored %q, want %q", p.path, basePath)
	}
	_, _, rollbacks, _ := l.Counts()
	if rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", rollbacks)
	}
}

func TestRunOnceResumesAfterCancel(t *testing.T) {
	l, st, _ := learnerFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := l.RunOnce(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st.Len() != 0 {
		t.Fatal("drain should have happened before the cancelled fine-tune")
	}
	if l.pending == nil {
		t.Fatal("cancelled run dropped its pending job")
	}
	want := rep.Samples
	// The next run must resume the parked job — the store is empty, so the
	// samples can only come from the pending checkpoint.
	rep2, err := l.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep2.Samples != want || !rep2.Promoted {
		t.Fatalf("resume lost work: %+v (want %d samples)", rep2, want)
	}
}
