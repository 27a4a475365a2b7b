package desim

import (
	"testing"

	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// stagePage renders and parses a registry on which every predict stage in
// perStage was observed around its duration, twice (so a mean is not just an
// echo), and — unless gatewaySelf is nil, a tier with no gateway — a gateway
// observed those costs of its own.
func stagePage(t *testing.T, perStage map[serve.Stage]float64, gatewaySelf []float64) []obs.Sample {
	t.Helper()
	reg := obs.NewRegistry()
	for _, st := range serve.Stages() {
		h := reg.Histogram(serve.StageMetric, obs.L("stage", st.String()))
		if d, ok := perStage[st]; ok {
			h.Observe(d / 2)
			h.Observe(d * 3 / 2)
		}
	}
	if gatewaySelf != nil {
		self := reg.Histogram(gateway.SelfMetric)
		for _, d := range gatewaySelf {
			self.Observe(d)
		}
	}
	samples, err := reg.Samples()
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestServiceModelFromStages: the cost table is the stage histograms' means —
// hit from body_hit, encode from every miss-path stage but the three waits the
// simulator models, gateway from the gateway's own series — and a page missing
// any of them is refused, never priced as free.
func TestServiceModelFromStages(t *testing.T) {
	// Every stage costs its position in the list, in units of 10 µs.
	all := map[serve.Stage]float64{}
	var encodeNs int64
	for _, st := range serve.Stages() {
		all[st] = float64(st+1) * 10e-6
	}
	for _, st := range EncodeStages() {
		encodeNs += int64(st+1) * 10_000
	}
	near := func(got, want int64) bool { return got >= want-2 && got <= want+2 } // float seconds → ns
	m, err := ServiceModelFromStages(stagePage(t, all, []float64{7e-6}))
	if err != nil {
		t.Fatal(err)
	}
	if !near(m.CacheHitNs, 10_000) || !near(m.EncodeNs, encodeNs) || !near(m.GatewayNs, 7_000) {
		t.Errorf("table %+v, want hit 10µs, encode %dns, gateway 7µs", m, encodeNs)
	}
	if m.ForwardBaseNs != 0 || m.ForwardPerItemNs != 0 || m.FallbackNs != 0 {
		t.Errorf("table %+v prices terms no stage measures", m)
	}
	for _, excluded := range []serve.Stage{serve.StageQueueWait, serve.StageForward, serve.StageCoalesceWait} {
		without := map[serve.Stage]float64{}
		for st, d := range all {
			if st != excluded {
				without[st] = d
			}
		}
		if got, err := ServiceModelFromStages(stagePage(t, without, []float64{7e-6})); err != nil || got != m {
			t.Errorf("without %s: table %+v, err %v; the simulator models that wait itself, so want %+v", excluded, got, err, m)
		}
	}

	// A tier with no gateway has no gateway series and no gateway cost.
	if m, err := ServiceModelFromStages(stagePage(t, all, nil)); err != nil || m.GatewayNs != 0 || !near(m.EncodeNs, encodeNs) {
		t.Errorf("replica-only page: table %+v, err %v", m, err)
	}

	// Zero and partial snapshots are errors, not zero tables.
	partial := map[serve.Stage]float64{serve.StageBodyHit: 4e-6, serve.StageFront: 2e-6}
	for what, samples := range map[string][]obs.Sample{
		"an empty page":              nil,
		"stages never observed":      stagePage(t, nil, nil),
		"hits only":                  stagePage(t, map[serve.Stage]float64{serve.StageBodyHit: 4e-6}, nil),
		"a miss cut short":           stagePage(t, partial, nil),
		"a gateway that saw nothing": stagePage(t, all, []float64{}),
	} {
		if m, err := ServiceModelFromStages(samples); err == nil {
			t.Errorf("%s: table %+v and no error", what, m)
		}
	}
}

// TestSimulateServeNeedsAServiceModel: there is no default cost table.
func TestSimulateServeNeedsAServiceModel(t *testing.T) {
	spec := loadgen.Spec{Seed: 1, Rate: 100, Duration: 100_000_000, Bodies: [][]byte{[]byte("a")}}
	if _, err := SimulateServe(mustSchedule(t, spec), ServeConfig{}); err == nil {
		t.Fatal("a zero ServiceModel simulated without error")
	}
}
