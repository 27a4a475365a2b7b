package serve

import "net/http"

// NewMuxBackend is an InProcessBackend over a bare mux, so that tests can
// call any handler the way the gateway calls a replica.
func NewMuxBackend(name string, mux *http.ServeMux) *InProcessBackend {
	return NewInProcessBackend(name, &Server{mux: mux})
}
