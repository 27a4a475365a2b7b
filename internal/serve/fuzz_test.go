package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// FuzzDecodePredictRequest throws arbitrary bytes at /v1/predict — the exact
// path an untrusted HTTP body takes, through the real handler on a server
// with a tiny (untrained) model installed. Properties: no panic; the answer
// is a 200 or a 400; and everything but a 200 carries the stable envelope
// with a non-empty code.
func FuzzDecodePredictRequest(f *testing.F) {
	s := New(Options{BatchWindow: -1})
	f.Cleanup(s.Close)
	s.Registry().Install(&core.ZeroTune{
		Model: gnn.New(tensor.NewRNG(1), gnn.Config{Hidden: 8, EncDepth: 1, HeadHidden: 8}),
		Mask:  features.MaskAll,
	}, "fuzz", "")

	valid, err := json.Marshal(PredictRequest{
		Plan:    queryplan.NewPQP(queryplan.SpikeDetection(10_000)),
		Cluster: ClusterSpec{Workers: 4, LinkGbps: 10},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"plan":null,"cluster":{"workers":2}}`))
	f.Add([]byte(`{"plan":{"query":null}}`))
	f.Add([]byte(`{"plan":{"query":{"ops":[{"id":-1,"type":9999}]}},"cluster":{"nodes":[{"name":""}]}}`))
	f.Add([]byte(`{"cluster":{"workers":-3,"node_types":["no-such-type"],"link_gbps":-1}}`))
	f.Add([]byte(`{"plan":1e308}`))
	f.Add(append(bytes.Clone(valid), []byte(` trailing`)...)) // trailing garbage
	f.Add(valid[:len(valid)/2])                               // truncated JSON
	f.Add([]byte(``))
	// Whatever decoding lets through, the handler has to judge: a null
	// operator, null or absent plan maps, a respelled no_chain, an empty query.
	f.Add([]byte(`{"plan":{"query":{"name":"x","ops":[null],"edges":[]},"parallelism":{}},"cluster":{"workers":2}}`))
	f.Add([]byte(`{"plan":{"query":{}},"cluster":{"workers":2}}`))
	query, err := json.Marshal(queryplan.SpikeDetection(10_000))
	if err != nil {
		f.Fatal(err)
	}
	for _, rest := range []string{`"parallelism":null`, `"placement":null`, `"no_chain":[7,3,3]`} {
		f.Add([]byte(`{"plan":{"query":` + string(query) + `,` + rest + `},"cluster":{"workers":2}}`))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if w.Code == http.StatusOK {
			return
		}
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var env errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Fatalf("400 without the stable envelope (%v): %s", err, w.Body)
		}
	})
}
