package feedback

import (
	"math"
	"sync"

	"zerotune/internal/metrics"
	"zerotune/internal/obs"
)

// Defaults of DetectorConfig, declared here and nowhere else.
const (
	DefaultDriftWindow     = 256
	DefaultDriftMinSamples = 32
	DefaultDriftMAPE       = 0.5 // predictions off by more than 50% on average
)

// DetectorConfig configures drift detection over a sliding window of
// (predicted, observed) latency pairs. Zero fields take defaults.
type DetectorConfig struct {
	// Window is the sliding-window length (default DefaultDriftWindow).
	Window int
	// MinSamples is how many pairs must be in the window before the
	// detector may trip (default DefaultDriftMinSamples, clamped to Window).
	MinSamples int
	// MAPEThreshold trips the detector when the window MAPE exceeds it
	// (default DefaultDriftMAPE).
	MAPEThreshold float64
	// PearsonFloor additionally trips when the window's Pearson r falls
	// below it — the model may be well-scaled yet rank plans badly. 0 (the
	// default) and values <= -1 disable the correlation trigger.
	PearsonFloor float64
	// Registry receives the zerotune_drift_* instruments; nil creates a
	// private one.
	Registry *obs.Registry
	// OnTrip runs (outside the detector lock) every time a threshold
	// breach fires; the server wires it to Learner.Kick.
	OnTrip func()
}

// WithDefaults fills unset config fields.
func (c DetectorConfig) WithDefaults() DetectorConfig {
	if c.Window < 1 {
		c.Window = DefaultDriftWindow
	}
	if c.MinSamples < 1 {
		c.MinSamples = DefaultDriftMinSamples
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.MAPEThreshold <= 0 {
		c.MAPEThreshold = DefaultDriftMAPE
	}
	if c.PearsonFloor == 0 {
		c.PearsonFloor = -1.01
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Detector watches prediction-vs-observed calibration over a sliding
// window, exports zerotune_drift_mape / zerotune_drift_pearson_r gauges and
// the window's median and p95 q-error, the paper's unit, as
// zerotune_drift_qerror{quantile="0.5"|"0.95"}, and trips a retrain trigger
// on threshold breach. After a trip the window resets, so a second trip
// requires a full window of fresh evidence. Safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu    sync.Mutex
	pred  []float64 // ring buffers, len == filled, cap == Window
	obs   []float64
	next  int // ring write position once full
	trips uint64
	qerr  []float64 // scratch for the q-error quantiles, cap == Window

	mapeGauge    *obs.Gauge
	pearsonGauge *obs.Gauge
	q50Gauge     *obs.Gauge
	q95Gauge     *obs.Gauge
	windowGauge  *obs.Gauge
	tripsCounter *obs.Counter
}

// NewDetector builds a detector from cfg (zero fields take defaults).
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.WithDefaults()
	return &Detector{
		cfg:          cfg,
		pred:         make([]float64, 0, cfg.Window),
		obs:          make([]float64, 0, cfg.Window),
		qerr:         make([]float64, 0, cfg.Window),
		mapeGauge:    cfg.Registry.Gauge("zerotune_drift_mape"),
		pearsonGauge: cfg.Registry.Gauge("zerotune_drift_pearson_r"),
		q50Gauge:     cfg.Registry.Gauge("zerotune_drift_qerror", obs.L("quantile", "0.5")),
		q95Gauge:     cfg.Registry.Gauge("zerotune_drift_qerror", obs.L("quantile", "0.95")),
		windowGauge:  cfg.Registry.Gauge("zerotune_drift_window"),
		tripsCounter: cfg.Registry.Counter("zerotune_drift_trips_total"),
	}
}

// Observe records one (predicted, observed) pair, fires OnTrip when the
// window breaches a threshold, and refreshes the gauges from the window as it
// then stands — so after a trip they read the reset window, 0.
func (d *Detector) Observe(predicted, observed float64) {
	if math.IsNaN(predicted) || math.IsNaN(observed) ||
		math.IsInf(predicted, 0) || math.IsInf(observed, 0) {
		return
	}
	d.mu.Lock()
	if len(d.pred) < cap(d.pred) {
		d.pred = append(d.pred, predicted)
		d.obs = append(d.obs, observed)
	} else {
		d.pred[d.next] = predicted
		d.obs[d.next] = observed
		d.next = (d.next + 1) % cap(d.pred)
	}
	mape := MAPE(d.pred, d.obs)
	r := Pearson(d.pred, d.obs)
	tripped := len(d.pred) >= d.cfg.MinSamples &&
		(mape > d.cfg.MAPEThreshold || (!math.IsNaN(r) && r < d.cfg.PearsonFloor))
	if tripped {
		d.trips++
		d.pred = d.pred[:0]
		d.obs = d.obs[:0]
		d.next = 0
		mape, r = math.NaN(), math.NaN()
	}
	d.windowGauge.Set(float64(len(d.pred)))
	d.mapeGauge.Set(gaugeSafe(mape))
	d.pearsonGauge.Set(gaugeSafe(r))
	q50, q95 := d.qErrors()
	d.q50Gauge.Set(q50)
	d.q95Gauge.Set(q95)
	onTrip := d.cfg.OnTrip
	d.mu.Unlock()
	if tripped {
		d.tripsCounter.Inc()
		if onTrip != nil {
			onTrip()
		}
	}
}

// Stats returns the current window MAPE, Pearson r, and fill. MAPE and r
// are NaN while the window is empty (or, for r, degenerate).
func (d *Detector) Stats() (mape, pearson float64, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return MAPE(d.pred, d.obs), Pearson(d.pred, d.obs), len(d.pred)
}

// qErrors is the window's median and p95 q-error of prediction against
// observation, 0 and 0 for an empty window. Caller holds d.mu.
func (d *Detector) qErrors() (q50, q95 float64) {
	if len(d.pred) == 0 {
		return 0, 0
	}
	d.qerr = d.qerr[:0]
	for i, p := range d.pred {
		d.qerr = append(d.qerr, metrics.QError(d.obs[i], p))
	}
	return metrics.Quantile(d.qerr, 0.5), metrics.Quantile(d.qerr, 0.95)
}

// Trips reports how many times the detector has fired.
func (d *Detector) Trips() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trips
}

// gaugeSafe renders NaN/Inf as 0 — the Prometheus text format has no
// useful NaN, and "no evidence yet" reads better as zero drift.
func gaugeSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// MAPE is the mean absolute percentage error of pred against obs:
// mean(|pred_i − obs_i| / |obs_i|). Pairs with obs == 0 are skipped; NaN
// when nothing remains.
func MAPE(pred, obs []float64) float64 {
	var sum float64
	var n int
	for i := range pred {
		if obs[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-obs[i]) / math.Abs(obs[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Pearson is the sample correlation coefficient of x and y; NaN when
// either series is constant or fewer than two pairs exist.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
