package serve_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"zerotune/internal/gateway"
	"zerotune/internal/serve"
)

// routeMethods is every standard method.
var routeMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
	http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
}

// routePaths are the tiers' routes, their trailing-slash, "//" and
// dot-segment spellings, and paths no tier routes.
var routePaths = []string{
	"/v1/predict", "/v1/tune", "/v1/reload", "/healthz", "/metrics",
	"/healthz/", "/v1/predict/", "/v1/", "/v1", "/",
	"//healthz", "/v1//predict", "/healthz//", "//",
	"/./healthz", "/v1/../healthz", "/v1/./predict", "/healthz/.", "/healthz/..", "/..", "/v1/predict/../tune",
	"/v2/predict", "/v1/feedback", "/favicon.ico", "/debug/pprof/", "/heal thz", "/v1/pr%65dict", "/café",
}

// tierPatterns are the route patterns of a replica and of a gateway.
func tierPatterns(t testing.TB) map[string][]string {
	s := serve.New(serve.Options{})
	t.Cleanup(s.Close)
	g, err := gateway.New([]serve.Backend{serve.NewInProcessBackend("r0", s)}, gateway.Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]string{"serve": s.Routes().Patterns(), "gateway": g.Routes().Patterns()}
}

// routedBoth builds a route table and an http.ServeMux from the same
// patterns, each route answering with its pattern in X-Pattern.
func routedBoth(patterns []string) (*serve.RouteTable, *http.ServeMux) {
	table, mux := serve.NewRouteTable(), http.NewServeMux()
	for _, p := range patterns {
		h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Header().Set("X-Pattern", p) })
		table.Handle(p, h)
		mux.Handle(p, h)
	}
	return table, mux
}

// sameAnswer serves method path?query through table and mux and reports
// where the status, the route taken, Allow or Location differ.
func sameAnswer(table *serve.RouteTable, mux *http.ServeMux, method, path, query string) string {
	answer := func(h http.Handler) string {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Method, r.URL = method, &url.URL{Path: path, RawQuery: query}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return strings.Join([]string{http.StatusText(w.Code), w.Header().Get("X-Pattern"),
			"Allow=" + w.Header().Get("Allow"), "Location=" + w.Header().Get("Location")}, " ")
	}
	if got, want := answer(table), answer(mux); got != want {
		return got + "; ServeMux: " + want
	}
	return ""
}

// TestRouterMatchesServeMux: for every standard method and each path, a
// tier's route table answers with the status, route, Allow and Location an
// http.ServeMux holding the same routes gives.
func TestRouterMatchesServeMux(t *testing.T) {
	for tier, patterns := range tierPatterns(t) {
		table, mux := routedBoth(patterns)
		for _, m := range routeMethods {
			for _, p := range routePaths {
				for _, q := range []string{"", "a=1"} {
					if diff := sameAnswer(table, mux, m, p, q); diff != "" {
						t.Errorf("%s: %s %q ?%s: %s", tier, m, p, q, diff)
					}
				}
			}
		}
	}
}

func FuzzRouterMatchesServeMux(f *testing.F) {
	for i, p := range routePaths {
		f.Add(uint8(i), p, "", i%2 == 0)
	}
	f.Add(uint8(2), "/v1/predict/../../healthz", "x=%zz", false)
	patterns := tierPatterns(f)
	type tier struct {
		table *serve.RouteTable
		mux   *http.ServeMux
	}
	var tiers [2]tier
	tiers[0].table, tiers[0].mux = routedBoth(patterns["serve"])
	tiers[1].table, tiers[1].mux = routedBoth(patterns["gateway"])
	f.Fuzz(func(t *testing.T, method uint8, path, query string, gw bool) {
		if !strings.HasPrefix(path, "/") {
			t.Skip("a request's path is rooted")
		}
		m := routeMethods[int(method)%len(routeMethods)]
		tr := tiers[0]
		if gw {
			tr = tiers[1]
		}
		if diff := sameAnswer(tr.table, tr.mux, m, path, query); diff != "" {
			t.Errorf("%s %q ?%q (gateway %v): %s", m, path, query, gw, diff)
		}
	})
}
