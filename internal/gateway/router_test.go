package gateway

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// fakeBackend is a scriptable replica: per-call latency, transport failure
// toggling and call counting, for routing and health tests that need no real
// model.
type fakeBackend struct {
	name    string
	calls   atomic.Int64
	failing atomic.Bool
	latency time.Duration
	status  int
	resp    []byte
}

func newFakeBackend(name string) *fakeBackend {
	return &fakeBackend{name: name, status: 200, resp: []byte(`{"ok":true}`)}
}

func (b *fakeBackend) Name() string { return b.name }

func (b *fakeBackend) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if b.failing.Load() {
		return 0, nil, fmt.Errorf("fake: %s down", b.name)
	}
	b.calls.Add(1)
	if b.latency > 0 {
		select {
		case <-time.After(b.latency):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	return b.status, b.resp, nil
}

// testPool builds a pool of fake backends with the default threshold.
func testPool(t *testing.T, seed uint64, names ...string) (*Pool, []*fakeBackend) {
	t.Helper()
	var fakes []*fakeBackend
	var backends []serve.Backend
	for _, n := range names {
		f := newFakeBackend(n)
		fakes = append(fakes, f)
		backends = append(backends, f)
	}
	return newPool(backends, seed, 3, obs.NewRegistry()), fakes
}

// TestAffinityDeterministicPlacement: rendezvous placement is a pure
// function of (key, replica names) — two independently built pools place a
// key population identically, and the population spreads over every replica.
func TestAffinityDeterministicPlacement(t *testing.T) {
	names := []string{"replica-0", "replica-1", "replica-2"}
	place := func() []string {
		pool, _ := testPool(t, 1, names...)
		rt := &affinityRouter{}
		out := make([]string, 0, 500)
		for key := uint64(0); key < 500; key++ {
			r, spill := rt.pick(pool.Replicas(), key, 0)
			if r == nil {
				t.Fatal("no replica picked with a fully healthy pool")
			}
			if spill {
				t.Fatalf("key %d spilled with a fully healthy pool", key)
			}
			out = append(out, r.Name())
		}
		return out
	}
	a, b := place(), place()
	byName := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("key %d: placement differs between builds: %s vs %s", i, a[i], b[i])
		}
		byName[a[i]]++
	}
	for _, n := range names {
		if byName[n] == 0 {
			t.Fatalf("replica %s owns no keys out of 500: distribution %v", n, byName)
		}
	}
	t.Logf("placement distribution over 500 keys: %v", byName)
}

// TestAffinitySpilloverAndReturn: ejecting a key's owner moves it — always
// to the same runner-up — and rejoin snaps ownership back. Keys owned by
// other replicas never move (minimal disruption).
func TestAffinitySpilloverAndReturn(t *testing.T) {
	pool, _ := testPool(t, 1, "replica-0", "replica-1", "replica-2")
	rt := &affinityRouter{}
	replicas := pool.Replicas()

	owner := map[uint64]string{}
	for key := uint64(0); key < 200; key++ {
		r, _ := rt.pick(replicas, key, 0)
		owner[key] = r.Name()
	}
	victim := replicas[0]
	pool.eject(victim)

	for key := uint64(0); key < 200; key++ {
		r, spill := rt.pick(replicas, key, 0)
		if owner[key] != victim.Name() {
			if spill || r.Name() != owner[key] {
				t.Fatalf("key %d: owner %s is healthy but placement moved to %s (spill=%v)",
					key, owner[key], r.Name(), spill)
			}
			continue
		}
		if !spill {
			t.Fatalf("key %d: owner %s ejected but pick reported no spill", key, victim.Name())
		}
		if r.Name() == victim.Name() {
			t.Fatalf("key %d: routed to ejected replica", key)
		}
		// Spill target is deterministic: picking again gives the same replica.
		r2, _ := rt.pick(replicas, key, 0)
		if r2.Name() != r.Name() {
			t.Fatalf("key %d: spill target unstable: %s vs %s", key, r.Name(), r2.Name())
		}
	}

	pool.rejoin(victim)
	for key := uint64(0); key < 200; key++ {
		r, spill := rt.pick(replicas, key, 0)
		if spill || r.Name() != owner[key] {
			t.Fatalf("key %d: ownership did not return after rejoin (got %s, want %s)",
				key, r.Name(), owner[key])
		}
	}
}

// TestRoundRobinSkipsEjected: a healthy pool splits evenly; with a replica
// ejected the cycle covers exactly the healthy set (the ejected slot's share
// falls to its scan successor, so evenness is only guaranteed pool-wide).
func TestRoundRobinSkipsEjected(t *testing.T) {
	pool, _ := testPool(t, 1, "replica-0", "replica-1", "replica-2")
	replicas := pool.Replicas()

	rt := &roundRobinRouter{}
	got := map[string]int{}
	for i := 0; i < 60; i++ {
		r, _ := rt.pick(replicas, 0, 0)
		got[r.Name()]++
	}
	if got["replica-0"] != 20 || got["replica-1"] != 20 || got["replica-2"] != 20 {
		t.Fatalf("round-robin skew over a healthy pool: %v", got)
	}

	pool.eject(replicas[1])
	got = map[string]int{}
	for i := 0; i < 60; i++ {
		r, _ := rt.pick(replicas, 0, 0)
		got[r.Name()]++
	}
	if got["replica-1"] != 0 {
		t.Fatalf("round-robin routed %d requests to an ejected replica", got["replica-1"])
	}
	if got["replica-0"] == 0 || got["replica-2"] == 0 {
		t.Fatalf("round-robin starved a healthy replica: %v", got)
	}
}

// TestRouterHonorsTriedMask: retries must fan out to untried replicas and
// report exhaustion once every healthy replica has been attempted.
func TestRouterHonorsTriedMask(t *testing.T) {
	pool, _ := testPool(t, 1, "replica-0", "replica-1", "replica-2")
	replicas := pool.Replicas()
	for _, rt := range []router{&roundRobinRouter{}, &leastLoadedRouter{}, &affinityRouter{}} {
		var tried uint64
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			r, _ := rt.pick(replicas, 7, tried)
			if r == nil {
				t.Fatalf("%s: nil pick with %d untried replicas", rt.policy(), 3-i)
			}
			if seen[r.Name()] {
				t.Fatalf("%s: picked %s twice despite tried mask", rt.policy(), r.Name())
			}
			seen[r.Name()] = true
			tried |= 1 << uint(r.idx)
		}
		if r, _ := rt.pick(replicas, 7, tried); r != nil {
			t.Fatalf("%s: picked %s after every replica was tried", rt.policy(), r.Name())
		}
	}
}

// TestLeastLoadedConvergence: under skewed service latency a slow replica
// accumulates outstanding requests and the router sheds traffic to its
// faster peers.
func TestLeastLoadedConvergence(t *testing.T) {
	slow := newFakeBackend("slow")
	slow.latency = 20 * time.Millisecond
	fastA, fastB := newFakeBackend("fast-a"), newFakeBackend("fast-b")

	g, err := New([]serve.Backend{slow, fastA, fastB}, Options{
		Route:         RouteLeastLoaded,
		ProbeInterval: -1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	rt := g.router
	replicas := g.pool.Replicas()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r, _ := rt.pick(replicas, 0, 0)
				r.noteDispatch()
				_, _, err := r.backend.Call(context.Background(), "/v1/predict", nil)
				r.noteDone()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	slowCalls := slow.calls.Load()
	fastCalls := fastA.calls.Load() + fastB.calls.Load()
	if slowCalls*4 > fastCalls {
		t.Fatalf("least-loaded did not shed from the slow replica: slow=%d fast=%d",
			slowCalls, fastCalls)
	}
	t.Logf("least-loaded split: slow=%d fast-a=%d fast-b=%d",
		slowCalls, fastA.calls.Load(), fastB.calls.Load())
}

// TestRoutePolicyValidation: unknown policies fail construction.
func TestRoutePolicyValidation(t *testing.T) {
	if _, err := newRouter("random"); err == nil {
		t.Fatal("newRouter accepted an unknown policy")
	}
	if err := queuePolicy("lifo"); err == nil {
		t.Fatal("queuePolicy accepted an unknown policy")
	}
}
