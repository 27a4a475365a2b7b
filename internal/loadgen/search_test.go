package loadgen

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// kneeOracle sustains every rate up to knee and fails every rate above it —
// its p99 blows through any bound — recording the rates it is asked for.
type kneeOracle struct {
	knee   float64
	probes []float64
}

func (o *kneeOracle) eval(rate float64) (StepReport, error) {
	o.probes = append(o.probes, rate)
	st := StepReport{OfferedRPS: rate, Requests: 100, OK: 100, Latency: Percentiles{P50: 0.5, P99: 1}}
	if rate > o.knee {
		st.Latency.P99 = 1e4
	}
	return st, nil
}

var searchDefaults = SearchOptions{P99: DefaultP99, MinRPS: DefaultMinRPS, MaxRPS: DefaultMaxRPS, StepDuration: DefaultStepDuration}

// searchKnees are knees spread log-uniformly over the default bracket, plus
// the bracket's own ends and powers of two the walk lands on exactly.
func searchKnees() []float64 {
	knees := []float64{DefaultMinRPS, 100, 1600, 3141.5, DefaultMaxRPS / 2, DefaultMaxRPS - 1}
	r := rand.New(rand.NewSource(25))
	for range 200 {
		knees = append(knees, DefaultMinRPS*math.Pow(DefaultMaxRPS/DefaultMinRPS, r.Float64()))
	}
	return knees
}

// TestSearchBracketsKnee: for a knee inside the bracket the answer contains
// it — the highest sustained rate at or below it, the lowest failed above —
// and pins it within 1 %.
func TestSearchBracketsKnee(t *testing.T) {
	for _, knee := range searchKnees() {
		o := &kneeOracle{knee: knee}
		c, err := Search(searchDefaults, o.eval)
		if err != nil {
			t.Fatal(err)
		}
		if !(c.MaxRPS <= knee && knee < c.FailRPS) || c.FailRPS/c.MaxRPS > bracketRatio {
			t.Errorf("knee %g: answer (%g, %g] does not contain it within 1%%", knee, c.MaxRPS, c.FailRPS)
		}
		if best := c.Best(); best.OfferedRPS != c.MaxRPS {
			t.Errorf("knee %g: Best is the step at %g, not at MaxRPS %g", knee, best.OfferedRPS, c.MaxRPS)
		}
	}
}

// TestSearchNeverOvershoots: no probe exceeds twice the lowest failing rate —
// a live target is never driven far past the point where it fell over.
func TestSearchNeverOvershoots(t *testing.T) {
	for _, knee := range searchKnees() {
		o := &kneeOracle{knee: knee}
		c, err := Search(searchDefaults, o.eval)
		if err != nil {
			t.Fatal(err)
		}
		lowestFail := math.Inf(1)
		for _, p := range c.Probes {
			if !p.Sustained {
				lowestFail = min(lowestFail, p.RPS)
			}
		}
		for _, rate := range o.probes {
			if rate > 2*lowestFail {
				t.Errorf("knee %g: probed %g, past twice the lowest failing rate %g", knee, rate, lowestFail)
			}
		}
	}
}

// TestSearchProbeBudget: the walk takes at most 1 + ⌈log₂(Max/Min)⌉ probes
// and the bisection at most seven, so no iteration budget is needed.
func TestSearchProbeBudget(t *testing.T) {
	for _, opts := range []SearchOptions{
		searchDefaults,
		{P99: time.Second, MinRPS: 200, MaxRPS: 20_000, StepDuration: time.Second},
		{P99: time.Second, MinRPS: 1, MaxRPS: 1.5, StepDuration: time.Second},
		{P99: time.Second, MinRPS: 0.25, MaxRPS: 1e6, StepDuration: time.Second},
	} {
		budget := 1 + int(math.Ceil(math.Log2(opts.MaxRPS/opts.MinRPS))) + 7
		r := rand.New(rand.NewSource(int64(opts.MaxRPS)))
		for range 200 {
			o := &kneeOracle{knee: opts.MinRPS * math.Pow(opts.MaxRPS/opts.MinRPS, r.Float64())}
			c, err := Search(opts, o.eval)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Probes) > budget || len(o.probes) != len(c.Probes) {
				t.Errorf("%+v, knee %g: %d probes (%d asked), budget %d", opts, o.knee, len(c.Probes), len(o.probes), budget)
			}
		}
	}
}

// TestSearchUnbracketedKnee: a failing floor reports MaxRPS 0 after one
// probe; a sustaining ceiling reports FailRPS 0.
func TestSearchUnbracketedKnee(t *testing.T) {
	o := &kneeOracle{knee: DefaultMinRPS / 2}
	c, err := Search(searchDefaults, o.eval)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxRPS != 0 || c.FailRPS != DefaultMinRPS || len(c.Probes) != 1 || c.Best().Requests != 0 {
		t.Errorf("failing floor: max %g, fail %g after %d probes; want 0, %d after 1", c.MaxRPS, c.FailRPS, len(c.Probes), DefaultMinRPS)
	}
	o = &kneeOracle{knee: 2 * DefaultMaxRPS}
	if c, err = Search(searchDefaults, o.eval); err != nil {
		t.Fatal(err)
	}
	if c.MaxRPS != DefaultMaxRPS || c.FailRPS != 0 || o.probes[len(o.probes)-1] != DefaultMaxRPS {
		t.Errorf("sustaining ceiling: max %g, fail %g, probes %v; want %d, 0", c.MaxRPS, c.FailRPS, o.probes, DefaultMaxRPS)
	}
}

// TestSearchDeterministic: equal inputs give an identical probe sequence.
func TestSearchDeterministic(t *testing.T) {
	a, b := &kneeOracle{knee: 7777}, &kneeOracle{knee: 7777}
	ca, errA := Search(searchDefaults, a.eval)
	cb, errB := Search(searchDefaults, b.eval)
	if errA != nil || errB != nil || !reflect.DeepEqual(a.probes, b.probes) || !reflect.DeepEqual(ca, cb) {
		t.Fatalf("equal searches diverged:\n%v\n%v", a.probes, b.probes)
	}
}

// TestSearchJudgesGoodputByRequests: a step is judged against the requests
// its schedule actually drew, not against rate × horizon — a Poisson draw 10 %
// short of its mean with every request answered is sustained — and fails
// when more than 5 % of them do.
func TestSearchJudgesGoodputByRequests(t *testing.T) {
	short := StepReport{OfferedRPS: 100, WallSec: 1, Requests: 90, OK: 90, GoodputRPS: 90}
	if !searchDefaults.sustained(short) {
		t.Error("a step with every drawn request answered was judged unsustained")
	}
	short.OK = 85
	if searchDefaults.sustained(short) {
		t.Error("a step with 85 of 90 requests answered was judged sustained")
	}
}

// TestSearchRefusesBadOptions: a bracket or bound with no answer is an error
// naming the flag, never silently replaced by a default.
func TestSearchRefusesBadOptions(t *testing.T) {
	for _, tc := range []struct {
		flag string
		edit func(*SearchOptions)
	}{
		{"-min-rate", func(o *SearchOptions) { o.MinRPS = 0 }},
		{"-min-rate", func(o *SearchOptions) { o.MinRPS = -5 }},
		{"-max-rate", func(o *SearchOptions) { o.MinRPS, o.MaxRPS = 1000, 500 }},
		{"-max-rate", func(o *SearchOptions) { o.MaxRPS = o.MinRPS }},
		{"-p99", func(o *SearchOptions) { o.P99 = 0 }},
		{"-step-duration", func(o *SearchOptions) { o.StepDuration = -time.Second }},
	} {
		opts := searchDefaults
		tc.edit(&opts)
		called := false
		_, err := Search(opts, func(float64) (StepReport, error) { called = true; return StepReport{}, nil })
		if err == nil || !strings.Contains(err.Error(), tc.flag) || called {
			t.Errorf("%+v: err %v (probed: %v), want an error naming %s before any probe", opts, err, called, tc.flag)
		}
	}
}

// TestSearchStopsOnOracleError: an oracle that fails ends the search with
// its error.
func TestSearchStopsOnOracleError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Search(searchDefaults, func(float64) (StepReport, error) { return StepReport{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the oracle's", err)
	}
}
