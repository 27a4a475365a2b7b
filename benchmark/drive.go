package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// respWriter is the reusable status-and-body ResponseWriter the clients hand
// to ServeHTTP: no sockets, and nothing allocated per request once body has
// grown to the largest response.
type respWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *respWriter) Header() http.Header  { return w.header }
func (w *respWriter) WriteHeader(code int) { w.status = code }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// caller issues requests to one handler from one goroutine. Per call it
// allocates the *http.Request (a copy of a template — handlers and the mux
// write to the request, so it cannot be shared) and nothing else.
type caller struct {
	h    http.Handler
	tmpl *http.Request
	rd   bodyReader
	w    respWriter
}

func newCaller(h http.Handler, path string) *caller {
	tmpl, err := http.NewRequest(http.MethodPost, "http://bench"+path, nil)
	if err != nil {
		panic(err) // constant URL
	}
	tmpl.Header.Set("Content-Type", "application/json")
	return &caller{h: h, tmpl: tmpl, w: respWriter{header: make(http.Header)}}
}

// call runs one request; the response is in c.w until the next call.
func (c *caller) call(body []byte) int {
	c.rd.Reset(body)
	req := new(http.Request)
	*req = *c.tmpl
	req.Body = &c.rd
	req.ContentLength = int64(len(body))
	c.w.status = http.StatusOK
	c.w.body = c.w.body[:0]
	c.h.ServeHTTP(&c.w, req)
	return c.w.status
}

// loadClient is one closed-loop caller's state. Its per-window tallies are
// private and merged after the run; the sequence cursor is the one thing the
// clients share while timing.
type loadClient struct {
	*caller
	scratch []byte
	windows []windowTally
	spans   *spanRing
}

type windowTally struct {
	lat        hist
	ok, failed uint64
}

// session drives one workload's sequence against one handler. cursor is the
// next unclaimed request; warm-up, checks and the timed region all advance it.
type session struct {
	seq     *sequence
	clients []*loadClient
	cursor  atomic.Uint64
}

func newSession(h http.Handler, path string, seq *sequence, clients int) *session {
	s := &session{seq: seq}
	for c := 0; c < clients; c++ {
		s.clients = append(s.clients, &loadClient{caller: newCaller(h, path)})
	}
	return s
}

// each runs fn once per client, concurrently, and waits for all of them.
func (s *session) each(fn func(cl *loadClient)) {
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *loadClient) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
}

// runCount sends the next n requests, untimed: the warm-up. Counting requests
// instead of seconds keeps the cache state at the start of the timed region
// the same on every run.
func (s *session) runCount(n int) {
	end := s.cursor.Load() + uint64(n)
	s.each(func(cl *loadClient) {
		var body []byte
		for {
			g := s.cursor.Add(1) - 1
			if g >= end {
				return
			}
			body, _, cl.scratch = s.seq.at(g, cl.scratch)
			cl.call(body)
		}
	})
	s.cursor.Store(end)
}

// windowStats is one window of the timed region, all clients merged.
type windowStats struct {
	traced        bool
	ok, failed    uint64
	seconds       float64
	stolen        float64 // share of the VM's CPU time the hypervisor withheld (/proc/stat steal)
	p50, p90, p99 float64 // call -> return of the 2xx answers, nanoseconds
}

// wallThroughput is completions per second of wall time.
func (w *windowStats) wallThroughput() float64 { return float64(w.ok) / w.seconds }

// throughput is completions per second the VM was allowed to run: the
// window's length less the stolen share of it. While the hypervisor runs
// another guest on these cores the clock goes on and the program does not;
// on this shared box that alone moved wall throughput by 30 % between runs of
// one commit, and a user on hardware of their own never loses that time.
func (w *windowStats) throughput() float64 { return w.wallThroughput() / (1 - w.stolen) }

// runTimed runs the closed loop for n windows of the given length. A request
// belongs to the window it completes in. With alternate set, every odd window
// is traced: each call in it is also recorded as a root span in the client's
// ring. Plain and traced windows interleave so that drift cancels in the
// overhead they are compared for.
func (s *session) runTimed(n int, window time.Duration, alternate bool) []windowStats {
	tallies, free := offHeapTallies(n * len(s.clients))
	defer free()
	for c, cl := range s.clients {
		cl.windows = tallies[c*n : (c+1)*n]
	}
	trace := make([]bool, n)
	for i := range trace {
		trace[i] = alternate && i%2 == 1
	}
	start := time.Now()
	// The host's tick counters at every window edge, read by a goroutine of
	// its own so that no client pays for the read.
	edges := make([]hostTime, n+1)
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := range edges {
			time.Sleep(time.Until(start.Add(time.Duration(i) * window)))
			edges[i] = readHostTime()
		}
	}()
	s.each(func(cl *loadClient) {
		var body []byte
		for {
			body, _, cl.scratch = s.seq.at(s.cursor.Add(1)-1, cl.scratch)
			t0 := time.Now()
			status := cl.call(body)
			t1 := time.Now()
			i := int(t1.Sub(start) / window)
			if i >= n {
				return
			}
			w := &cl.windows[i]
			if status >= 200 && status < 300 {
				w.ok++
				w.lat.record(int64(t1.Sub(t0)))
			} else {
				w.failed++
			}
			if trace[i] {
				cl.spans.root(t0, t1)
			}
		}
	})
	sampler.Wait()
	out := make([]windowStats, n)
	for i := range out {
		w := &out[i]
		w.traced = trace[i]
		w.seconds = window.Seconds()
		w.stolen = stolenShare(edges[i], edges[i+1])
		var lat hist
		for _, cl := range s.clients {
			lat.merge(&cl.windows[i].lat)
			w.ok += cl.windows[i].ok
			w.failed += cl.windows[i].failed
		}
		w.p50, w.p90, w.p99 = lat.quantile(0.50), lat.quantile(0.90), lat.quantile(0.99)
	}
	for _, cl := range s.clients {
		cl.windows = nil
	}
	return out
}

// offHeapTallies returns n zeroed tallies in memory the collector neither
// scans nor counts, so the driver's histograms do not pace the collections of
// the program under test; free releases them. Pages are touched here, not in
// the timed region.
func offHeapTallies(n int) (tallies []windowTally, free func()) {
	size := n * int(unsafe.Sizeof(windowTally{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]windowTally, n), func() {}
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0
	}
	return unsafe.Slice((*windowTally)(unsafe.Pointer(&mem[0])), n), func() { syscall.Munmap(mem) }
}

// noopHandler is what the driver's own cost is measured against.
type noopHandler struct{}

func (noopHandler) ServeHTTP(http.ResponseWriter, *http.Request) {}
