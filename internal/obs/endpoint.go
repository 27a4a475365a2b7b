package obs

import (
	"net/http"
	"sync"
	"time"
)

// Endpoint is the request accounting of one HTTP endpoint, the same triple
// at every tier: requests, errors (status ≥ 400) and latency.
type Endpoint struct {
	Errors  *Counter
	Latency *Histogram
}

// NewEndpoint registers <prefix>_requests_total, <prefix>_request_errors_total
// and <prefix>_request_duration_seconds on reg, labelled endpoint=name. The
// request count is the latency histogram's count: every request is timed
// once, so counting it again would only repeat that write.
func NewEndpoint(reg *Registry, prefix, name string) *Endpoint {
	l := L("endpoint", name)
	e := &Endpoint{
		Errors:  reg.Counter(prefix+"_request_errors_total", l),
		Latency: reg.Histogram(prefix+"_request_duration_seconds", l),
	}
	reg.CounterFunc(prefix+"_requests_total", e.Requests, l)
	return e
}

// Requests is how many requests the endpoint has answered.
func (e *Endpoint) Requests() uint64 { return e.Latency.Count() }

// StatusWriter remembers the response code for error counting, and when the
// request it answers began and, if its handler says so, ended. Wrap lends one
// to each request and takes it back when the handler returns, so a handler
// must not keep it.
type StatusWriter struct {
	http.ResponseWriter
	status  int
	started time.Time
	ended   time.Time
}

func (w *StatusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Status is the code written so far (200 until WriteHeader says otherwise).
func (w *StatusWriter) Status() int { return w.status }

// Started is the instant Wrap began timing the request: where a handler that
// splits its own time into stages starts, so the stages and the endpoint's
// latency share one clock reading.
func (w *StatusWriter) Started() time.Time { return w.started }

// End records t as the instant the request ended: a handler that timed its
// own last stage hands Wrap that reading, so the stages and the endpoint's
// latency also end on one clock reading. Unset, Wrap reads the clock once h
// returns.
func (w *StatusWriter) End(t time.Time) { w.ended = t }

// statusWriters recycles the writers Wrap lends, so timing a request
// allocates nothing.
var statusWriters = sync.Pool{New: func() any { return new(StatusWriter) }}

// Wrap counts every request h answers and times it. h is handed a
// *StatusWriter, so a layer composed inside can read the status too.
func (e *Endpoint) Wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriters.Get().(*StatusWriter)
		*sw = StatusWriter{ResponseWriter: w, status: http.StatusOK, started: start}
		h(sw, r)
		if sw.status >= 400 {
			e.Errors.Inc()
		}
		end := sw.ended
		if end.IsZero() {
			end = time.Now()
		}
		e.Latency.Observe(end.Sub(start).Seconds())
		*sw = StatusWriter{}
		statusWriters.Put(sw)
	}
}
