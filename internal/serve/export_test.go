package serve

import (
	"net/http"
	"time"
)

// NewMuxBackend is an InProcessBackend over a bare mux, so that tests can
// call any handler the way the gateway calls a replica.
func NewMuxBackend(name string, mux *http.ServeMux) *InProcessBackend {
	return NewInProcessBackend(name, &Server{mux: mux})
}

// SetBreakerClock makes s's circuit breaker read now for its cooldown, so a
// test decides when an open circuit admits its probe.
func SetBreakerClock(s *Server, now func() time.Time) {
	s.breaker.mu.Lock()
	s.breaker.cfg.Now = now
	s.breaker.mu.Unlock()
}
