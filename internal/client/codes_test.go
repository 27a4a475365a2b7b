package client_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/serve"
)

// decode runs one typed call against a handler that answers with write and
// returns the error the client decoded.
func decode(t *testing.T, write func(w http.ResponseWriter)) error {
	t.Helper()
	c := client.NewForHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { write(w) }))
	_, err := c.Predict(context.Background(), &serve.PredictRequest{})
	if err == nil {
		t.Fatal("error response decoded as success")
	}
	return err
}

// writable finds a (status, error) pair serve's writer answers with code: the
// code's sentinel at its failure status, or, for a code with no sentinel, a
// plain error at the first status whose fallback the code is.
func writable(code string) (int, error, bool) {
	if s := serve.SentinelFor(code); s != nil {
		return serve.FailureStatus(s), s, true
	}
	plain := errors.New("plain")
	for status := 400; status < 600; status++ {
		if serve.ErrorCode(status, plain) == code {
			return status, plain, true
		}
	}
	return 0, nil, false
}

// TestEveryCodeRoundTrips pins what the client exists for: every code either
// tier can write, written by serve's writer, decodes to an *APIError with that
// code and status, which errors.Is-matches its own code's sentinel and no
// other code's — and never the caller's own context errors.
func TestEveryCodeRoundTrips(t *testing.T) {
	codes := serve.KnownErrorCodes()
	for _, code := range codes {
		status, werr, ok := writable(code)
		if !ok {
			t.Errorf("no error or status makes serve write code %q", code)
			continue
		}
		err := decode(t, func(w http.ResponseWriter) { serve.WriteError(w, status, werr) })
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != code || apiErr.Status != status || apiErr.Message != werr.Error() {
			t.Errorf("%q written at %d decoded as %#v", code, status, apiErr)
			continue
		}
		for _, other := range codes {
			s := serve.SentinelFor(other)
			if s == nil {
				continue
			}
			if want := other == code; errors.Is(err, s) != want {
				t.Errorf("decoded %q: errors.Is(%q's sentinel) = %v, want %v", code, other, !want, want)
			}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("decoded %q matches a caller-side context error", code)
		}
	}
}

// TestNonEnvelopeBodyClassifiedByStatus: a body that is not the envelope
// takes the code serve's table gives its status alone, and that code's
// sentinel where it has one.
func TestNonEnvelopeBodyClassifiedByStatus(t *testing.T) {
	cases := []struct {
		status   int
		code     string
		sentinel error
	}{
		{429, "queue_full", serve.ErrQueueFull},
		{400, "bad_request", nil},
		{404, "not_found", nil},
		{405, "method_not_allowed", nil},
		{422, "invalid_model", nil},
		{499, "canceled", nil},
		{503, "unavailable", nil},
		{500, "internal", nil},
		{502, "internal", nil},
	}
	for _, c := range cases {
		err := decode(t, func(w http.ResponseWriter) {
			w.WriteHeader(c.status)
			_, _ = w.Write([]byte("<html>proxy says no</html>"))
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != c.code || apiErr.Code != serve.ErrorCode(c.status, nil) {
			t.Errorf("status %d: decoded %v, want code %q", c.status, err, c.code)
		}
		if c.sentinel != nil && !errors.Is(err, c.sentinel) {
			t.Errorf("status %d: %v does not match %v", c.status, err, c.sentinel)
		}
	}
}
