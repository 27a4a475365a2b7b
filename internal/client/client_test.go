package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"zerotune/internal/serve"
)

// TestNonEnvelopeBodyTruncatedOnRuneBoundary: a long non-envelope body is cut
// to at most maxRawMessage bytes without splitting a multi-byte rune, whether
// or not the cut falls on one.
func TestNonEnvelopeBodyTruncatedOnRuneBoundary(t *testing.T) {
	for _, body := range []string{
		strings.Repeat("é", 150),       // 300 bytes, a rune starts at byte 256
		"x" + strings.Repeat("é", 150), // byte 256 is the middle of a rune
	} {
		err := decodeAPIError(400, []byte(body))
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != "bad_request" {
			t.Fatalf("got %v, want a bad-request *APIError", err)
		}
		if msg := apiErr.Message; !utf8.ValidString(msg) || len(msg) > maxRawMessage || len(msg) < maxRawMessage-utf8.UTFMax {
			t.Errorf("%d-byte body: message of %d bytes, valid UTF-8 %v", len(body), len(msg), utf8.ValidString(msg))
		}
	}
}

func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "http://", "not a url\x7f://"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	c, err := New("http://127.0.0.1:9999/")
	if err != nil {
		t.Fatal(err)
	}
	if c.Base() != "http://127.0.0.1:9999" {
		t.Fatalf("base not normalized: %q", c.Base())
	}
}

// TestResponseReadBounded: a handler streaming more than serve.MaxBodyBytes
// must not balloon the returned body past the cap, in process or over HTTP.
func TestResponseReadBounded(t *testing.T) {
	big := strings.Repeat("x", serve.MaxBodyBytes+4096)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	})
	hs := httptest.NewServer(h)
	defer hs.Close()
	overHTTP, err := New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{NewForHandler(h), overHTTP} {
		_, body, err := c.Call(context.Background(), "/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != serve.MaxBodyBytes {
			t.Fatalf("%s: read %d bytes, want the %d-byte cap", c.Name(), len(body), serve.MaxBodyBytes)
		}
	}
}

// TestHandlerTransportAbandonsStuckHandler: the watchdog contract. A wedged
// handler must surface as the caller's context error, and the handler must
// never observe the caller's cancellation.
func TestHandlerTransportAbandonsStuckHandler(t *testing.T) {
	sawCancel := make(chan bool, 1)
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			sawCancel <- true
		case <-release:
			sawCancel <- false
		}
	})
	c := NewForHandler(h)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Call(ctx, "/v1/predict", []byte(`{}`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck handler surfaced as %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("abandonment took implausibly long")
	}
	close(release)
	if <-sawCancel {
		t.Fatal("handler observed the caller's cancellation — watchdog semantics broken")
	}
}

// TestTypedMethodsAgainstServe drives the real server in process: typed
// round trips decode, and error statuses come back as typed errors.
func TestTypedMethodsAgainstServe(t *testing.T) {
	s := serve.New(serve.Options{})
	defer s.Close()
	c := NewForHandler(s)
	ctx := context.Background()

	// An empty predict is a 400 whether or not a model is installed.
	_, err := c.Predict(ctx, &serve.PredictRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_request" {
		t.Fatalf("modelless predict: %v", err)
	}
	// Health on a modelless server is non-200 → typed error.
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("health reported OK without a model")
	}
	// Malformed body through the raw Call: enveloped 400.
	status, body, err := c.Call(ctx, "/v1/predict", []byte("{nope"))
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("malformed predict: status=%d err=%v", status, err)
	}
	var env struct {
		Error struct{ Code, Message string } `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("400 body is not the envelope: %s", body)
	}
}
