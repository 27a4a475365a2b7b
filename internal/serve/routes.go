package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"path"
	"slices"
	"strings"
)

// RouteTable is the HTTP surface of both tiers: an exact-match table of
// routes, each a method, a path and a handler. A routed request costs one map
// lookup on its path. Everything else answers as an http.ServeMux holding the
// same routes would, with the envelope where ServeMux writes plain text:
//
//   - a path with routes, none for the method: 405 method_not_allowed, the
//     path's methods in the Allow header;
//   - a path that is not clean (a "//", "." or ".." segment), unless the
//     method is CONNECT: ServeMux's 301 to the clean path;
//   - any other path: 404 not_found.
//
// Unlike ServeMux's, a path matches itself only: a route has no wildcards, and
// a trailing slash names that one path, not a subtree. A request whose
// RawPath escapes a "/" is matched on its decoded Path.
type RouteTable struct {
	paths    map[string]*routePath
	patterns []string // as registered
}

// routePath is every route of one path.
type routePath struct {
	routes []route
	allow  string // the Allow header of its 405: its methods, sorted, HEAD beside GET
}

// route is one method's handler; an empty method takes every method.
type route struct {
	method string
	h      http.Handler
}

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable { return &RouteTable{paths: make(map[string]*routePath)} }

// Handle adds a route under a ServeMux pattern without a host: "METHOD /path",
// or "/path" for every method. A GET route also answers HEAD. It panics on a
// pattern that is not of that form, names an unclean path, or repeats a
// route, as ServeMux panics on a conflict.
func (t *RouteTable) Handle(pattern string, h http.Handler) {
	method, p, ok := strings.Cut(pattern, " ")
	if !ok {
		method, p = "", pattern
	}
	if p == "" || p[0] != '/' || cleanPath(p) != p || strings.ContainsAny(p, "{} \t") {
		panic(fmt.Sprintf("serve: route pattern %q is not [METHOD ]/clean/path", pattern))
	}
	rp := t.paths[p]
	if rp == nil {
		rp = new(routePath)
		t.paths[p] = rp
	}
	for _, r := range rp.routes {
		if r.method == method {
			panic(fmt.Sprintf("serve: route pattern %q registered twice", pattern))
		}
	}
	rp.routes = append(rp.routes, route{method: method, h: h})
	t.patterns = append(t.patterns, pattern)
	var allow []string
	for _, r := range rp.routes {
		if r.method != "" {
			allow = append(allow, r.method)
		}
		if r.method == http.MethodGet {
			allow = append(allow, http.MethodHead)
		}
	}
	slices.Sort(allow)
	rp.allow = strings.Join(slices.Compact(allow), ", ")
}

// HandleFunc is Handle for a function.
func (t *RouteTable) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	t.Handle(pattern, http.HandlerFunc(h))
}

// Patterns lists the patterns of the table's routes in the order they were
// added: what an http.ServeMux holding the same routes is built from.
func (t *RouteTable) Patterns() []string { return slices.Clone(t.patterns) }

// handler is the route taking method, nil when none does.
func (rp *routePath) handler(method string) http.Handler {
	var get http.Handler
	for _, r := range rp.routes {
		switch r.method {
		case method, "":
			return r.h
		case http.MethodGet:
			get = r.h
		}
	}
	if method == http.MethodHead {
		return get
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (t *RouteTable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rp := t.paths[r.URL.Path]
	if rp != nil {
		if h := rp.handler(r.Method); h != nil {
			h.ServeHTTP(w, r)
			return
		}
	}
	if r.Method != http.MethodConnect {
		escaped := r.URL.EscapedPath()
		if clean := cleanPath(escaped); clean != escaped {
			u := &url.URL{Path: clean, RawQuery: r.URL.RawQuery}
			http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
			return
		}
	}
	if rp != nil {
		w.Header().Set("Allow", rp.allow)
		WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s %s: method not allowed", r.Method, r.URL.Path))
		return
	}
	WriteError(w, http.StatusNotFound, fmt.Errorf("serve: %s %s: no such endpoint", r.Method, r.URL.Path))
}

// cleanPath is the path ServeMux redirects p to: path.Clean, rooted, keeping
// a trailing slash.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}
