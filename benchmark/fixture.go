package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// scale sizes the fixture. The full scale is what every reported number
// uses; the small one exists so the package test finishes in seconds.
type scale struct {
	items, epochs int
	setups        int // set-ups per untraced run; the median is reported
	windows       int
	poolCap       int           // largest request pool
	warmCap       int           // most warm-up requests
	stageSamples  int           // requests replayed per stage in the traced pass
	loadgenRun    time.Duration // length of the open-loop send-lag probe
}

var (
	// Three set-ups, because one is a single multi-second sample.
	fullScale = scale{items: 600, epochs: 10, setups: 3, windows: 30, poolCap: coldPlans, warmCap: coldPlans,
		stageSamples: 2000, loadgenRun: 2 * time.Second}
	testScale = scale{items: 120, epochs: 2, setups: 1, windows: 2, poolCap: 5120, warmCap: 512,
		stageSamples: 64, loadgenRun: 200 * time.Millisecond}
)

// fixture is everything derived from the seed before any target exists: the
// training corpus, the trained and compiled model, and an uncompiled view of
// the same weights that answer checking predicts with.
type fixture struct {
	seed uint64
	gen  *workload.Generator
	zt   *core.ZeroTune // compiled: what the targets serve
	ref  *core.ZeroTune // same weights on the float64 reference path

	generateS, trainS, compileS float64
}

func newFixture(seed uint64, sc scale) (*fixture, error) {
	f := &fixture{seed: seed, gen: workload.NewSeenGenerator(seed)}
	t0 := time.Now()
	items, err := f.gen.Generate(workload.SeenRanges().Structures, sc.items)
	if err != nil {
		return nil, err
	}
	f.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	opts := core.DefaultTrainOptions()
	opts.Epochs = sc.epochs
	opts.Seed = seed
	f.zt, _, err = core.Train(context.Background(), items, opts)
	if err != nil {
		return nil, err
	}
	f.trainS = time.Since(t0).Seconds()

	t0 = time.Now()
	if err := f.zt.Compile(gnn.CompileOptions{}); err != nil {
		return nil, fmt.Errorf("compile gate: %w", err)
	}
	f.compileS = time.Since(t0).Seconds()
	f.ref = &core.ZeroTune{Model: f.zt.Model, Mask: f.zt.Mask}
	return f, nil
}

// Plan index ranges of the pools; disjoint, so a stream plan is never also a
// hot plan.
const (
	streamFrom = 0
	repeatFrom = coldPlans
	tuneFrom   = coldPlans + mixHotSet
)

// requestBodies marshals n request payloads for plan indices from..from+n the
// way `zerotune bench` builds its corpus: SampleQuery, then a degree-1 plan
// (/v1/predict) or the bare query (/v1/tune) with the workers-only cluster
// shorthand.
func requestBodies(gen *workload.Generator, path string, from, n int) ([][]byte, error) {
	structures := workload.SeenRanges().Structures
	out := make([][]byte, n)
	for i := range out {
		j := from + i
		q, c, err := gen.SampleQuery(structures[j%len(structures)], uint64(j+1))
		if err != nil {
			return nil, fmt.Errorf("sample plan %d: %w", j, err)
		}
		cl := serve.ClusterSpec{Workers: len(c.Nodes)}
		var req any = serve.PredictRequest{Plan: queryplan.NewPQP(q), Cluster: cl}
		if path == tunePath {
			req = serve.TuneRequest{Query: q, Cluster: cl}
		}
		if out[i], err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("encode plan %d: %w", j, err)
		}
	}
	return out, nil
}

// target is the system under test for one workload: one serve.Server, or a
// gateway over two in-process replicas. Every option not named here is at
// its default, because defaults are what users run.
type target struct {
	handler http.Handler
	servers []*serve.Server
	gw      *gateway.Gateway
}

func (f *fixture) newServer() *serve.Server {
	s := serve.New(serve.Options{Compiled: true})
	s.Registry().Install(f.zt, "bench", "")
	return s
}

func (f *fixture) newTarget(viaGateway bool) (*target, error) {
	if !viaGateway {
		s := f.newServer()
		return &target{handler: s, servers: []*serve.Server{s}}, nil
	}
	t := &target{}
	var backends []serve.Backend
	for i := 0; i < 2; i++ {
		s := f.newServer()
		t.servers = append(t.servers, s)
		backends = append(backends, serve.NewInProcessBackend(fmt.Sprintf("replica-%d", i), s))
	}
	gw, err := gateway.New(backends, gateway.Options{ProbeInterval: -1, Seed: f.seed})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gw, t.handler = gw, gw
	return t, nil
}

func (t *target) close() {
	if t.gw != nil {
		t.gw.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}

// rig is one workload ready to be timed: fixture, pools, warmed target and
// the per-client state that continues the request sequence across warm-up,
// checks and the timed region.
type rig struct {
	def  *workloadDef
	fix  *fixture
	tgt  *target
	sess *session

	bodiesS, targetS, warmS float64
	stolen                  float64 // share of the VM's CPU time withheld during set-up
}

// setupS is the workload's whole set-up time: the cost a user pays before the
// first timed request, and where work moved out of the request path shows.
// Like throughput it counts the time the VM was allowed to run.
func (r *rig) setupS() float64 {
	wall := r.fix.generateS + r.fix.trainS + r.fix.compileS + r.bodiesS + r.targetS + r.warmS
	return wall * (1 - r.stolen)
}

// buildSequence marshals the workload's request pools from the seeded
// generator and lays the request sequence over them.
func buildSequence(gen *workload.Generator, def *workloadDef, sc scale) (*sequence, error) {
	var repeat, stream [][]byte
	var err error
	if def.repeatN > 0 {
		from := repeatFrom
		if def.path == tunePath {
			from = tuneFrom
		}
		repeat, err = requestBodies(gen, def.path, from, def.repeatN)
	}
	if err == nil && def.streamN > 0 {
		stream, err = requestBodies(gen, def.path, streamFrom, min(def.streamN, sc.poolCap))
	}
	if err != nil {
		return nil, err
	}
	return newSequence(def.pattern, repeat, stream), nil
}

func newRig(def *workloadDef, seed uint64, sc scale) (*rig, error) {
	before := readHostTime()
	fix, err := newFixture(seed, sc)
	if err != nil {
		return nil, err
	}
	r := &rig{def: def, fix: fix}

	t0 := time.Now()
	seq, err := buildSequence(fix.gen, def, sc)
	if err != nil {
		return nil, err
	}
	r.bodiesS = time.Since(t0).Seconds()

	t0 = time.Now()
	if r.tgt, err = fix.newTarget(def.gateway); err != nil {
		return nil, err
	}
	clients := def.clients
	if clients == 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	r.sess = newSession(r.tgt.handler, def.path, seq, clients)
	r.targetS = time.Since(t0).Seconds()

	t0 = time.Now()
	if def.path == predictPath {
		if err := r.prime(); err != nil {
			r.close()
			return nil, err
		}
	}
	r.sess.runCount(min(def.warm, sc.warmCap))
	r.warmS = time.Since(t0).Seconds()
	r.stolen = stolenShare(before, readHostTime())
	return r, nil
}

func (r *rig) close() { r.tgt.close() }

// prime sends every repeat-pool body once to every server, directly, and
// checks it as a first sight: the answer is right and not flagged cached.
// Behind the gateway this also puts each hot plan in both replicas' plan
// caches, so a respelled repeat is a fingerprint hit whichever replica its
// new bytes hash to. coldClients callers at a time let the batcher flush
// full batches instead of waiting out one window per body.
func (r *rig) prime() error {
	for _, srv := range r.tgt.servers {
		errs := make([]error, len(r.sess.seq.repeat))
		var wg sync.WaitGroup
		sem := make(chan struct{}, coldClients)
		for i, body := range r.sess.seq.repeat {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, body []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				c := newCaller(srv, r.def.path)
				errs[i] = r.fix.checkPredict(c, body, false)
			}(i, body)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("prime: %w", err)
			}
		}
	}
	return nil
}
