// Package loadgen is the open-loop load harness behind `zerotune bench`:
// it turns a workload specification — Poisson arrivals at a fixed mean rate,
// the load the paper prices every query at — into a deterministic schedule,
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
// recorded trace replays byte-exactly for regression runs. A trace is also
// how any other arrival pattern is driven: whatever schedule a file holds,
// bursty or shaped, replays as written.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"zerotune/internal/fault"
)

// ClassShare weights one SLO class in the generated mix.
type ClassShare struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// maxScheduleRequests bounds the expected length of one schedule, Rate ×
// Duration: every request is materialized up front, so a finite but huge
// product would append until the process runs out of memory.
const maxScheduleRequests = 1 << 22

// predictPath is where every generated request goes.
const predictPath = "/v1/predict"

// Spec describes one open-loop workload: Poisson arrivals at a fixed mean
// rate. The schedule derived from it is a pure function of the struct's
// value; two equal Specs yield byte-identical schedules.
type Spec struct {
	// Seed drives every random draw (arrivals, class mix, body choice).
	Seed uint64 `json:"seed"`
	// Rate is the mean offered load in requests/second.
	Rate float64 `json:"rate_rps"`
	// Duration bounds the schedule in intended-send time.
	Duration time.Duration `json:"duration_ns"`
	// Classes is the SLO class mix; empty means every request is unclassed.
	Classes []ClassShare `json:"classes,omitempty"`
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

// validate rejects a spec with no schedule, or one too long to build.
func (s Spec) validate() error {
	// Every float bound is written so that NaN fails it: NaN compares false
	// against everything, and ±Inf must not pass as a rate or a weight.
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("loadgen: rate must be positive and finite, got %g", s.Rate)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %s", s.Duration)
	}
	if n := s.Rate * s.Duration.Seconds(); n > maxScheduleRequests {
		return fmt.Errorf("loadgen: -rate %g over -duration %s expects %.3g requests, more than the %d one schedule holds",
			s.Rate, s.Duration, n, maxScheduleRequests)
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

// Schedule materializes the spec into the full request schedule, in order of
// intended send time. The result is deterministic: equal specs (seed
// included) produce byte-identical schedules.
func (s Spec) Schedule() ([]Request, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arrivals := newStream(s.Seed, "loadgen.arrival")
	classes := newStream(s.Seed, "loadgen.class")
	bodies := newStream(s.Seed, "loadgen.body")

	totalWeight := 0.0
	for _, c := range s.Classes {
		totalWeight += c.Weight
	}

	var reqs []Request
	// unitTime is the arrival time of a unit-rate Poisson process: it only
	// grows, and dividing by a positive rate and truncating to a Duration are
	// monotone, so the offsets come out sorted.
	unitTime := 0.0
	for {
		// 1-u keeps the argument in (0, 1]: the stream draws from [0, 1).
		unitTime += -math.Log(1 - arrivals.next())
		t := unitTime / s.Rate // seconds from run start
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
		reqs = append(reqs, Request{Offset: offset, Class: class, Path: predictPath, Body: body})
	}
	return reqs, nil
}
