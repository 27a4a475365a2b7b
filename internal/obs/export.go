package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
)

// TracesHandler serves the tracer's completed-trace ring as a JSON array,
// newest trace first.
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := t.Traces()
		if traces == nil {
			traces = []TraceData{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
}

// Mux is where RegisterDebug mounts its handlers, by http.ServeMux's
// patterns: an *http.ServeMux, or a route table that takes the same
// patterns as exact paths.
type Mux interface {
	Handle(pattern string, h http.Handler)
}

// RegisterDebug mounts the debug surface on mux: the trace dump under
// /debug/traces and the net/http/pprof handlers under /debug/pprof/, one path
// per profile the runtime defines, so a mux that matches paths exactly serves
// them all. It is called only when the operator opts in (serve -debug); the
// default mux is never touched, so importing this package does not expose
// pprof.
func RegisterDebug(mux Mux, t *Tracer) {
	mux.Handle("GET /debug/traces", TracesHandler(t))
	mux.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	mux.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	mux.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	mux.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	mux.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	for _, p := range rpprof.Profiles() {
		mux.Handle("/debug/pprof/"+p.Name(), pprof.Handler(p.Name()))
	}
}
