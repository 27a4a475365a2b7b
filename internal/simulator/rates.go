package simulator

import (
	"math"

	"zerotune/internal/queryplan"
)

// opRates carries the steady-state data-rate analysis of one operator at a
// given offered load.
type opRates struct {
	inRate   float64 // total events/s entering the operator (both sides for joins)
	outRate  float64 // total events/s leaving the operator
	outPerIn float64 // emission amortization factor (outRate/inRate)

	// Join-only: expected candidate tuples scanned in the opposite window
	// per arriving tuple (drives probe cost), already including the match
	// selectivity of the hash bucket.
	probeCandidates float64

	// windowSeconds is the expected residence horizon of the operator's
	// window (0 for unwindowed operators); used for window wait time.
	windowSeconds float64
	// windowsPerSec is the window emission frequency.
	windowsPerSec float64
}

const minRate = 1e-9

// propagateRates fills rates, one entry per topological position of t, with the
// steady-state rates when the sources are scaled by factor alpha (alpha = 1 is
// the nominal plan). t is an analysed query (Query.Analyze), so every operator
// has a known type and the inputs that type takes; joins read both.
func propagateRates(t *queryplan.Topology, alpha float64, rates []opRates) {
	for pos, op := range t.Ops {
		ins := t.In[pos]
		var r opRates
		switch op.Type {
		case queryplan.OpSource:
			r.inRate = math.Max(op.EventRate*alpha, minRate)
			r.outRate = r.inRate
			r.outPerIn = 1

		case queryplan.OpFilter:
			r.inRate = math.Max(rates[ins[0].From].outRate, minRate)
			r.outRate = r.inRate * op.Selectivity
			r.outPerIn = op.Selectivity

		case queryplan.OpAggregate:
			r.inRate = math.Max(rates[ins[0].From].outRate, minRate)
			horizon, wps := op.WindowSpan(r.inRate)
			r.windowSeconds = horizon
			r.windowsPerSec = wps
			windowTuples := r.inRate * horizon
			// Distinct groups per window emission (Def. 6): at least one
			// result per window, at most one per buffered tuple.
			groups := math.Max(1, math.Min(op.Selectivity*windowTuples, windowTuples))
			r.outRate = wps * groups
			r.outPerIn = r.outRate / r.inRate

		case queryplan.OpJoin:
			in1 := math.Max(rates[ins[0].From].outRate, minRate)
			in2 := math.Max(rates[ins[1].From].outRate, minRate)
			r.inRate = in1 + in2
			horizon, wps := op.WindowSpan(r.inRate)
			r.windowSeconds = horizon
			r.windowsPerSec = wps
			// Buffered tuples per side over the window horizon.
			w1 := in1 * horizon
			w2 := in2 * horizon
			// Def. 5: matches are sel · |W1|·|W2| per window pair; in
			// steady state each arriving tuple matches sel · |W_opposite|.
			// Products are rounded on their own, as in ServiceTimeUs.
			r.outRate = op.Selectivity * (float64(in1*w2) + float64(in2*w1))
			r.outPerIn = r.outRate / r.inRate
			r.probeCandidates = r.outPerIn // candidates ≈ matches per tuple

		case queryplan.OpSink:
			r.inRate = math.Max(rates[ins[0].From].outRate, minRate)
			r.outRate = r.inRate
			r.outPerIn = 1
		}
		rates[pos] = r
	}
}

// maxShare returns the fraction of an operator's input stream that its most
// loaded instance receives: 1/P for perfectly balanced partitioning, larger
// under hash skew, which grows mildly with the degree.
func (cm *CostModel) maxShare(part queryplan.PartitionStrategy, degree int) float64 {
	if degree <= 1 {
		return 1
	}
	p := float64(degree)
	switch part {
	case queryplan.PartHash:
		skew := cm.SkewBase + float64(cm.SkewGrowth*math.Log(p))
		return math.Min(1, (1+skew)/p)
	default: // forward, rebalance: even
		return 1 / p
	}
}

// RateEstimate summarizes the steady-state analytical rates of one
// operator at the offered load.
type RateEstimate struct {
	InRate          float64
	OutRate         float64
	OutPerIn        float64
	ProbeCandidates float64
}

// EstimateSteadyRates exposes the engine's Def. 3–6 rate propagation at the
// offered load, by topological position of the analysed query t, to external
// consumers (the discrete-event validator uses it to derive the same amortized
// service times the analytical engine charges).
func EstimateSteadyRates(t *queryplan.Topology) []RateEstimate {
	rates := make([]opRates, len(t.Ops))
	propagateRates(t, 1, rates)
	out := make([]RateEstimate, len(rates))
	for pos, r := range rates {
		out[pos] = RateEstimate{
			InRate:          r.inRate,
			OutRate:         r.outRate,
			OutPerIn:        r.outPerIn,
			ProbeCandidates: r.probeCandidates,
		}
	}
	return out
}
