package serve

import (
	"context"
	"net/http"
	"testing"
)

// TestInProcessBackendFirstStatusWins: like a real connection, the status an
// in-process caller sees is the one in force when the body started — a late
// WriteHeader does not relabel bytes already written.
func TestInProcessBackendFirstStatusWins(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/late", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
		w.WriteHeader(http.StatusInternalServerError)
	})
	mux.HandleFunc("/v1/twice", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusInternalServerError)
	})
	mux.HandleFunc("/v1/silent", func(http.ResponseWriter, *http.Request) {})
	b := NewInProcessBackend("stub", &Server{mux: mux})
	for path, want := range map[string]struct {
		status int
		body   string
	}{
		"/v1/late":   {http.StatusOK, "ok"},
		"/v1/twice":  {http.StatusTeapot, ""},
		"/v1/silent": {http.StatusOK, ""},
	} {
		status, body, err := b.Call(context.Background(), path, nil)
		if err != nil || status != want.status || string(body) != want.body {
			t.Errorf("%s: got (%d, %q, %v), want (%d, %q, nil)", path, status, body, err, want.status, want.body)
		}
	}
}
