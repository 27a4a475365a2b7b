package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/client"
)

// replayBody is a request body that can be read again from the start.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// allocWriter is a response writer that allocates nothing once warm.
type allocWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *allocWriter) Header() http.Header         { return w.h }
func (w *allocWriter) WriteHeader(c int)           { w.status = c }
func (w *allocWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// forwardAllocs is the ceiling on what a forwarded body hit allocates
// through Gateway.ServeHTTP, the replica included: 7 measured plus one. They
// are the body's presized storage, the per-attempt deadline's four (its
// context, its cancel func, its timer and the timer's func), the request copy
// that carries that context, and the answer's copy.
const forwardAllocs = 8

// TestGatewayForwardAllocCeiling: once the pools are warm, a body hit
// forwarded to an in-process replica allocates no more than forwardAllocs,
// with a reused request and writer.
func TestGatewayForwardAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	reps := newReplicaSet(t, 1)
	g := pinGateway(t, reps[0], Options{})
	body := predictBody(t, 2)
	var rd replayBody
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	r.Body = &rd
	r.ContentLength = int64(len(body))
	w := &allocWriter{h: make(http.Header)}
	forward := func() {
		rd.Reset(body)
		w.status = http.StatusOK
		w.buf.Reset()
		g.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.buf.Bytes())
		}
	}
	forward() // the miss that fills the replica's body cache
	forward()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	const runs = 1000
	before := reps[0].Server().Snapshot().BodyHits
	allocs := testing.AllocsPerRun(runs, forward)
	t.Logf("%.2f allocations per forwarded body hit", allocs)
	if allocs > forwardAllocs {
		t.Errorf("%.2f allocations per forwarded body hit, want at most %d", allocs, forwardAllocs)
	}
	if hits := reps[0].Server().Snapshot().BodyHits - before; hits != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d body hits, want %d", hits, runs+1)
	}
	if got := w.h.Get(replicaHeader); got != "replica-0" {
		t.Errorf("%s %q, want replica-0", replicaHeader, got)
	}
	if got := w.h.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q, want application/json", got)
	}
}

// TestForwardBodyOutlivesAbandonedCall: a replica abandoned mid-call still
// owns the body it was sent. The replica is a client.NewForHandler whose
// handler wedges, before it reads its body, past the gateway's per-attempt
// deadline; the gateway answers that request and forwards 32 more of the
// same length while the handler is wedged; released, the handler reads
// exactly the bytes it was sent. A gateway that recycled its body storage
// would hand those bytes to a later request.
func TestForwardBodyOutlivesAbandonedCall(t *testing.T) {
	const more = 32
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"request":%06d}`, i)) }
	release := make(chan struct{})
	wedged := make(chan []byte, 1)
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release
			b, _ := io.ReadAll(r.Body)
			wedged <- b
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	})
	g := pinGateway(t, client.NewForHandler(h).Named("r"), Options{RequestTimeout: 100 * time.Millisecond})
	forward := func(b []byte) (int, []byte) {
		w := httptest.NewRecorder()
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b)))
		return w.Code, w.Body.Bytes()
	}
	if status, resp := forward(body(0)); status != http.StatusServiceUnavailable {
		close(release)
		t.Fatalf("wedged forward: status %d (%s), want 503", status, resp)
	}
	for i := 1; i <= more; i++ {
		if status, resp := forward(body(i)); status != http.StatusOK || !bytes.Equal(resp, body(i)) {
			t.Errorf("forward %d: status %d, answer %q, want the echo %q", i, status, resp, body(i))
		}
	}
	close(release)
	if got := <-wedged; !bytes.Equal(got, body(0)) {
		t.Errorf("the abandoned handler read %q, want %q", got, body(0))
	}
}
