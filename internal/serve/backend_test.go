package serve_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// TestBackendsAgree: every serve.Backend builds its request one way
// (serve.NewRequest over HTTP, the same request from pooled storage in
// process) and reads the answer one way. The path picks the method, whatever
// the body; the handler sees the path, and the body as sent with its length,
// with the JSON content type on a POST; the class on the context arrives as
// X-SLO-Class; as on a real connection, the first status a handler writes is
// the one the caller sees, 200 when it writes none; and nothing a handler
// changes in its request or its response header outlives its call.
func TestBackendsAgree(t *testing.T) {
	type seen struct {
		method, path, body, class, contentType string
		length                                 int64
	}
	var (
		mu   sync.Mutex
		last seen
	)
	echo := func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		last = seen{r.Method, r.URL.Path, string(b), r.Header.Get(serve.SLOClassHeader), r.Header.Get("Content-Type"), r.ContentLength}
		mu.Unlock()
		w.Write(b)
	}
	mux := serve.NewRouteTable()
	mux.HandleFunc("POST /v1/echo", echo)
	mux.HandleFunc("GET /healthz", echo)
	mux.HandleFunc("POST /v1/late", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
		w.WriteHeader(http.StatusInternalServerError)
	})
	mux.HandleFunc("POST /v1/twice", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusInternalServerError)
	})
	mux.HandleFunc("POST /v1/silent", func(http.ResponseWriter, *http.Request) {})
	// stamp answers 500 if it finds what it leaves behind in the last call:
	// a request header, a response header or a rewritten URL.
	mux.HandleFunc("POST /v1/stamp", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Stamp") != "" || w.Header().Get("X-Stamp") != "" || r.URL.Path != "/v1/stamp" {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "left over: request %v, response %v, path %s", r.Header, w.Header(), r.URL.Path)
			return
		}
		r.Header.Set("X-Stamp", "1")
		r.Header.Del("Content-Type")
		w.Header().Set("X-Stamp", "1")
		r.URL.Path = "/elsewhere"
		w.WriteHeader(http.StatusAccepted)
	})
	hs := httptest.NewUnstartedServer(mux)
	hs.Config.ErrorLog = log.New(io.Discard, "", 0) // the superfluous WriteHeaders are the point
	hs.Start()
	defer hs.Close()
	overHTTP, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	plain := context.Background()
	gold := serve.WithSLOClass(plain, "gold")
	calls := []struct {
		ctx        context.Context
		path, body string
		want       seen
	}{
		{gold, "/v1/echo", `{"x":1}`, seen{http.MethodPost, "/v1/echo", `{"x":1}`, "gold", "application/json", 7}},
		// An empty body does not make a GET (an empty /v1/reload is valid) …
		{plain, "/v1/echo", "", seen{http.MethodPost, "/v1/echo", "", "", "application/json", 0}},
		// … and a body does not make a POST.
		{gold, "/healthz", `{}`, seen{http.MethodGet, "/healthz", `{}`, "gold", "", 2}},
		// A class set on the last call is not on this one.
		{plain, "/v1/echo", `[]`, seen{http.MethodPost, "/v1/echo", `[]`, "", "application/json", 2}},
	}
	// In this order, so that a status fixed in one call must not carry over
	// to the next.
	firstStatus := []struct {
		path   string
		status int
		body   string
	}{
		{"/v1/late", http.StatusOK, "ok"},
		{"/v1/twice", http.StatusTeapot, ""},
		{"/v1/silent", http.StatusOK, ""},
		{"/v1/stamp", http.StatusAccepted, ""},
		{"/v1/stamp", http.StatusAccepted, ""},
		{"/v1/stamp", http.StatusAccepted, ""},
	}
	for _, row := range []struct {
		name    string
		b       serve.Backend
		payload bool // Call returns what the handler wrote
	}{
		{"serve.InProcessBackend", serve.NewRoutesBackend("replica-0", mux), true},
		{"loadgen.HandlerTarget", loadgen.HandlerTarget{Handler: mux}, false},
		{"client.NewForHandler", client.NewForHandler(mux), true},
		{"client.New", overHTTP, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, c := range calls {
				status, resp, err := row.b.Call(c.ctx, c.path, []byte(c.body))
				if err != nil || status != http.StatusOK {
					t.Fatalf("%s: status %d, err %v", c.path, status, err)
				}
				mu.Lock()
				got := last
				mu.Unlock()
				if got != c.want {
					t.Errorf("%s: handler saw %+v, want %+v", c.path, got, c.want)
				}
				if row.payload && string(resp) != c.body {
					t.Errorf("%s: answer %q, want the echo %q", c.path, resp, c.body)
				}
			}
			for _, c := range firstStatus {
				status, resp, err := row.b.Call(plain, c.path, nil)
				if err != nil || status != c.status {
					t.Errorf("%s: status %d, err %v; want %d", c.path, status, err, c.status)
				}
				if row.payload && string(resp) != c.body {
					t.Errorf("%s: answer %q, want %q", c.path, resp, c.body)
				}
			}
		})
	}
}
