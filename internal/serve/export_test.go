package serve

import "time"

// NewRoutesBackend is an InProcessBackend over a bare route table, so that
// tests can call any handler the way the gateway calls a replica.
func NewRoutesBackend(name string, routes *RouteTable) *InProcessBackend {
	return NewInProcessBackend(name, &Server{routes: routes})
}

// SetBreakerClock makes s's circuit breaker read now for its cooldown, so a
// test decides when an open circuit admits its probe.
func SetBreakerClock(s *Server, now func() time.Time) {
	s.breaker.mu.Lock()
	s.breaker.cfg.Now = now
	s.breaker.mu.Unlock()
}
