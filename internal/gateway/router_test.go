package gateway

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// fakeBackend is a scriptable replica whose transport failures a test
// toggles, for routing and health tests that need no real model.
type fakeBackend struct {
	name    string
	failing atomic.Bool
	status  int
	resp    []byte
}

func newFakeBackend(name string) *fakeBackend {
	return &fakeBackend{name: name, status: 200, resp: []byte(`{"ok":true}`)}
}

func (b *fakeBackend) Name() string { return b.name }

func (b *fakeBackend) Call(_ context.Context, path string, body []byte) (int, []byte, error) {
	if b.failing.Load() {
		return 0, nil, fmt.Errorf("fake: %s down", b.name)
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
		out := make([]string, 0, 500)
		for key := uint64(0); key < 500; key++ {
			r, spill := pick(pool.Replicas(), key, 0)
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
	replicas := pool.Replicas()

	owner := map[uint64]string{}
	for key := uint64(0); key < 200; key++ {
		r, _ := pick(replicas, key, 0)
		owner[key] = r.Name()
	}
	victim := replicas[0]
	pool.eject(victim)

	for key := uint64(0); key < 200; key++ {
		r, spill := pick(replicas, key, 0)
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
		r2, _ := pick(replicas, key, 0)
		if r2.Name() != r.Name() {
			t.Fatalf("key %d: spill target unstable: %s vs %s", key, r.Name(), r2.Name())
		}
	}

	pool.rejoin(victim)
	for key := uint64(0); key < 200; key++ {
		r, spill := pick(replicas, key, 0)
		if spill || r.Name() != owner[key] {
			t.Fatalf("key %d: ownership did not return after rejoin (got %s, want %s)",
				key, r.Name(), owner[key])
		}
	}
}

// TestRouterHonorsTriedMask: retries fan out to untried replicas in
// descending affinity score — the order retries walk — and report exhaustion once every healthy replica has been tried.
func TestRouterHonorsTriedMask(t *testing.T) {
	pool, _ := testPool(t, 1, "replica-0", "replica-1", "replica-2")
	replicas := pool.Replicas()
	for key := uint64(0); key < 50; key++ {
		var tried uint64
		prev := math.Inf(1)
		for i := 0; i < len(replicas); i++ {
			r, _ := pick(replicas, key, tried)
			if r == nil {
				t.Fatalf("key %d: nil pick with %d untried replicas", key, len(replicas)-i)
			}
			if tried&(1<<uint(r.idx)) != 0 {
				t.Fatalf("key %d: picked %s twice despite tried mask", key, r.Name())
			}
			s := affinityScore(key, r.Name())
			if s > prev {
				t.Fatalf("key %d: pick %d is %s with score %g, above the previous pick's %g",
					key, i, r.Name(), s, prev)
			}
			prev = s
			tried |= 1 << uint(r.idx)
		}
		if r, _ := pick(replicas, key, tried); r != nil {
			t.Fatalf("key %d: picked %s after every replica was tried", key, r.Name())
		}
	}
}
