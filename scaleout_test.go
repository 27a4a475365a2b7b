package zerotune

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGatewayScaleOut asserts what BenchmarkGatewayPredict measures: three
// affinity-routed replicas outrun one on its workload, because plan
// fingerprints shard the 384 plans so that each replica's share fits its
// 192-entry caches. The cause is checked deterministically: after one pass
// over the bodies, a second pass, started one body later, finds none of them
// in one replica's caches and every one in three replicas'. (The offset keeps
// a route that follows arrival order, not the plan, from passing: it sends
// every body to a replica other than the one that cached it.) The claim is
// checked by running the benchmark itself at both sizes.
func TestGatewayScaleOut(t *testing.T) {
	zt := benchServeModel(t)
	bodies := scaleOutBodies(t)

	secondPassHits := func(n int) uint64 {
		g, servers := scaleOutGateway(t, zt, n)
		hits := func() (sum uint64) {
			for _, s := range servers {
				snap := s.Snapshot()
				sum += snap.BodyHits + snap.Cache.Hits
			}
			return sum
		}
		pass := func(offset int) {
			for i := range bodies {
				body := bodies[(i+offset)%len(bodies)]
				w := httptest.NewRecorder()
				g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("replicas=%d: status %d: %s", n, w.Code, w.Body)
				}
			}
		}
		pass(0)
		before := hits()
		pass(1)
		return hits() - before
	}
	one, three := secondPassHits(1), secondPassHits(3)
	t.Logf("second-pass cache hits over %d bodies: %d at 1 replica, %d at 3 replicas", len(bodies), one, three)
	if one != 0 || three != uint64(len(bodies)) {
		t.Errorf("second-pass cache hits: %d at 1 replica, %d at 3; want 0 and %d", one, three, len(bodies))
	}

	rps := map[int]float64{}
	for _, n := range []int{1, 3} {
		r := testing.Benchmark(func(b *testing.B) {
			g, _ := scaleOutGateway(b, zt, n)
			driveGateway(b, g, bodies)
		})
		rps[n] = r.Extra["req/sec"]
	}
	t.Logf("gateway scale-out: 1 replica %.0f req/s, 3 replicas %.0f req/s", rps[1], rps[3])
	if !(rps[3] > rps[1]) {
		t.Errorf("3-replica gateway (%.0f req/s) not faster than 1 replica (%.0f req/s)", rps[3], rps[1])
	}
}
