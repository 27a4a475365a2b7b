package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
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

// RegisterDebug mounts the debug surface on mux: the trace dump under
// /debug/traces and the net/http/pprof handlers under /debug/pprof/. It is
// called only when the operator opts in (serve -debug); the default mux is
// never touched, so importing this package does not expose pprof.
func RegisterDebug(mux *http.ServeMux, t *Tracer) {
	mux.Handle("GET /debug/traces", TracesHandler(t))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
