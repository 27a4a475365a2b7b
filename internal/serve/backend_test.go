package serve_test

import (
	"context"
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
// (serve.NewRequest) and reads the answer one way. The path picks the method,
// whatever the body; the body arrives as sent, with the JSON content type on a
// POST; the class on the context arrives as X-SLO-Class; and, as on a real
// connection, the first status a handler writes is the one the caller sees.
func TestBackendsAgree(t *testing.T) {
	type seen struct{ method, body, class, contentType string }
	var (
		mu   sync.Mutex
		last seen
	)
	echo := func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		last = seen{r.Method, string(b), r.Header.Get(serve.SLOClassHeader), r.Header.Get("Content-Type")}
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
		{gold, "/v1/echo", `{"x":1}`, seen{http.MethodPost, `{"x":1}`, "gold", "application/json"}},
		// An empty body does not make a GET (an empty /v1/reload is valid) …
		{plain, "/v1/echo", "", seen{http.MethodPost, "", "", "application/json"}},
		// … and a body does not make a POST.
		{gold, "/healthz", `{}`, seen{http.MethodGet, `{}`, "gold", ""}},
	}
	firstStatus := []struct {
		path   string
		status int
		body   string
	}{
		{"/v1/late", http.StatusOK, "ok"},
		{"/v1/twice", http.StatusTeapot, ""},
		{"/v1/silent", http.StatusOK, ""},
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
