// Package loadgen is the open-loop load harness behind `zerotune bench`:
// it turns a workload specification into a deterministic arrival schedule,
// fires it at a serving target without ever waiting for responses before
// sending the next request, and reports latency percentiles that are free
// of coordinated omission.
//
// # Open loop, and why it matters
//
// A closed-loop client (curl in a shell loop, most naive benchmarks) sends
// the next request only after the previous one returns. When the server
// stalls, the client politely stops offering load, so the stall barely
// shows up in the numbers — this is coordinated omission. Real users are an
// open-loop source: they arrive when they arrive, whether or not the server
// is keeping up. loadgen therefore derives every request's *intended* send
// time from the arrival process up front and measures latency from that
// intended time to completion. A request that could not even be put on the
// wire on time accrues its queueing delay in the reported latency, exactly
// as a user would experience it (the HdrHistogram-style correction).
//
// # Determinism
//
// The schedule — arrival times, SLO classes, request bodies — is a pure
// function of the Spec (seed included). All randomness is drawn from the
// fault package's seeded splitmix64 uniform stream, so `zerotune bench
// -seed S` twice produces byte-identical schedules and trace files, and a
// recorded trace replays byte-exactly for regression runs.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"zerotune/internal/fault"
)

// ArrivalKind names an interarrival process.
type ArrivalKind string

const (
	// ArrivalPoisson draws exponential interarrivals (CV fixed at 1) — the
	// memoryless baseline for independent users.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalGamma draws gamma interarrivals with the Spec's CV: CV < 1
	// models smoothed/paced traffic, CV > 1 bursty traffic.
	ArrivalGamma ArrivalKind = "gamma"
	// ArrivalWeibull draws Weibull interarrivals with the Spec's CV — a
	// heavier tail than gamma at the same CV, the classic fat-tailed
	// arrival model.
	ArrivalWeibull ArrivalKind = "weibull"
	// ArrivalUniform spaces requests exactly 1/rate apart (CV 0) — a
	// metronome, useful for isolating server-side variance.
	ArrivalUniform ArrivalKind = "uniform"
)

// ClassShare weights one SLO class in the generated mix.
type ClassShare struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// DefaultCV is Spec.CV unset: the exponential's, so gamma and weibull start
// out Poisson-like.
const DefaultCV = 1

// Spec describes one open-loop workload. The schedule derived from it is a
// pure function of the struct's value; two equal Specs yield byte-identical
// schedules.
type Spec struct {
	// Seed drives every random draw (arrivals, class mix, body choice).
	Seed uint64 `json:"seed"`
	// Arrival selects the interarrival process (default poisson).
	Arrival ArrivalKind `json:"arrival"`
	// Rate is the mean offered load in requests/second.
	Rate float64 `json:"rate_rps"`
	// CV is the interarrival coefficient of variation for gamma/weibull
	// (default DefaultCV; ignored by poisson and uniform).
	CV float64 `json:"cv,omitempty"`
	// Duration bounds the schedule in intended-send time.
	Duration time.Duration `json:"duration_ns"`
	// MaxRequests additionally caps the schedule length (0 = unlimited).
	MaxRequests int `json:"max_requests,omitempty"`
	// DiurnalAmplitude in [0, 1) modulates the rate sinusoidally:
	// rate(t) = Rate * (1 + A*sin(2πt/Period)). 0 disables the envelope.
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
	// DiurnalPeriod is the envelope period (default: the Duration, one
	// full day-night cycle across the run).
	DiurnalPeriod time.Duration `json:"diurnal_period_ns,omitempty"`
	// Classes is the SLO class mix; empty means every request is unclassed.
	Classes []ClassShare `json:"classes,omitempty"`
	// Path is the target endpoint (default /v1/predict).
	Path string `json:"path,omitempty"`
	// Bodies is the request-body corpus; each request picks one body by a
	// seeded draw. Must be non-empty to build a schedule.
	Bodies [][]byte `json:"-"`
}

// Request is one scheduled request: what to send, where, and — crucially
// for open-loop measurement — when it was *intended* to leave.
type Request struct {
	// Offset is the intended send time relative to run start.
	Offset time.Duration
	// Class is the SLO class (empty = unclassed; sent as serve.SLOClassHeader).
	Class string
	// Path is the endpoint.
	Path string
	// Body is the exact payload bytes.
	Body []byte
}

// uniformStream is a deterministic uniform(0,1) source built on the fault
// package's splitmix64∘FNV hash: draw n of stream (seed, label) is
// fault.Uniform(seed, label, n). Separate labels give decorrelated streams
// from one seed, so adding draws to one stream never shifts another.
type uniformStream struct {
	seed  uint64
	label string
	n     uint64
}

func newStream(seed uint64, label string) *uniformStream {
	return &uniformStream{seed: seed, label: label}
}

// next returns the stream's next uniform draw in [0, 1).
func (u *uniformStream) next() float64 {
	u.n++
	return fault.Uniform(u.seed, u.label, u.n)
}

// validate normalizes defaults and rejects nonsense.
func (s *Spec) validate() error {
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	switch s.Arrival {
	case ArrivalPoisson, ArrivalGamma, ArrivalWeibull, ArrivalUniform:
	default:
		return fmt.Errorf("loadgen: unknown arrival process %q", s.Arrival)
	}
	// Every float bound is written so that NaN fails it: NaN compares false
	// against everything, and ±Inf must not pass as a rate or a weight.
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("loadgen: rate must be positive and finite, got %g", s.Rate)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %s", s.Duration)
	}
	if s.CV == 0 {
		s.CV = DefaultCV
	}
	if !(s.CV >= 0) || math.IsInf(s.CV, 0) {
		return fmt.Errorf("loadgen: cv must be non-negative and finite, got %g", s.CV)
	}
	if !(s.DiurnalAmplitude >= 0 && s.DiurnalAmplitude < 1) {
		return fmt.Errorf("loadgen: diurnal amplitude must be in [0,1), got %g", s.DiurnalAmplitude)
	}
	if s.DiurnalAmplitude > 0 && s.DiurnalPeriod == 0 {
		s.DiurnalPeriod = s.Duration
	}
	if s.Path == "" {
		s.Path = "/v1/predict"
	}
	if len(s.Bodies) == 0 {
		return fmt.Errorf("loadgen: spec needs at least one request body")
	}
	for _, c := range s.Classes {
		if !(c.Weight >= 0) || math.IsInf(c.Weight, 0) {
			return fmt.Errorf("loadgen: class %q weight must be non-negative and finite, got %g", c.Name, c.Weight)
		}
	}
	return nil
}

// Schedule materializes the spec into the full request schedule, sorted by
// intended send time. The result is deterministic: equal specs (seed
// included) produce byte-identical schedules.
func (s Spec) Schedule() ([]Request, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arrivals := newStream(s.Seed, "loadgen.arrival")
	classes := newStream(s.Seed, "loadgen.class")
	bodies := newStream(s.Seed, "loadgen.body")
	sampler, err := newInterarrival(s.Arrival, s.CV, arrivals)
	if err != nil {
		return nil, err
	}
	env := envelope{rate: s.Rate, amplitude: s.DiurnalAmplitude, period: s.DiurnalPeriod.Seconds()}

	totalWeight := 0.0
	for _, c := range s.Classes {
		totalWeight += c.Weight
	}

	var reqs []Request
	unitTime := 0.0 // cumulative time of the unit-rate (mean-1) process
	for {
		unitTime += sampler.next()
		t := env.invert(unitTime) // seconds from run start
		offset := time.Duration(t * float64(time.Second))
		if offset >= s.Duration {
			break
		}
		class := ""
		if totalWeight > 0 {
			pick := classes.next() * totalWeight
			class = s.Classes[len(s.Classes)-1].Name // rounding fallback
			for _, c := range s.Classes {
				if pick < c.Weight {
					class = c.Name
					break
				}
				pick -= c.Weight
			}
		}
		body := s.Bodies[int(bodies.next()*float64(len(s.Bodies)))%len(s.Bodies)]
		reqs = append(reqs, Request{Offset: offset, Class: class, Path: s.Path, Body: body})
		if s.MaxRequests > 0 && len(reqs) >= s.MaxRequests {
			break
		}
	}
	// The time-rescaled arrivals are monotone by construction, but guard
	// against float rounding so the runner can rely on sorted offsets.
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Offset < reqs[j].Offset })
	return reqs, nil
}
