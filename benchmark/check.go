package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// checkTolerance is the compile gate's budget: a served (compiled, float32)
// answer may differ from the uncompiled float64 prediction by this share.
const checkTolerance = 0.01

// checkSamples is how many responses are checked before and again after each
// timed region.
const checkSamples = 64

func within(got, want float64) bool {
	return math.Abs(got-want) <= checkTolerance*math.Abs(want)
}

// checkPredict sends one /v1/predict body and compares the answer with a
// direct uncompiled core.ZeroTune.Predict on the same plan; wantCached is the
// cached flag the path taken must report.
func (f *fixture) checkPredict(c *caller, body []byte, wantCached bool) error {
	if status := c.call(body); status != http.StatusOK {
		return fmt.Errorf("predict: status %d: %s", status, bytes.TrimSpace(c.w.body))
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(c.w.body, &resp); err != nil {
		return fmt.Errorf("predict: decode response: %w", err)
	}
	if resp.Degraded {
		return fmt.Errorf("predict: degraded answer from %q", resp.Fallback)
	}
	if resp.Cached != wantCached {
		return fmt.Errorf("predict: cached=%v, want %v", resp.Cached, wantCached)
	}
	var req serve.PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("predict: decode own request: %w", err)
	}
	cl, err := req.Cluster.Build()
	if err != nil {
		return err
	}
	want, err := f.ref.Predict(context.Background(), req.Plan, cl)
	if err != nil {
		return err
	}
	if !within(resp.LatencyMs, want.LatencyMs) || !within(resp.ThroughputEPS, want.ThroughputEPS) {
		return fmt.Errorf("predict: got (%g ms, %g eps), uncompiled model says (%g ms, %g eps)",
			resp.LatencyMs, resp.ThroughputEPS, want.LatencyMs, want.ThroughputEPS)
	}
	return nil
}

// checkTune sends one /v1/tune body twice. The answer must be a valid degree
// vector for the query and cluster, byte-identical on repeat, and its
// reported cost must be what the uncompiled model predicts for that plan.
func (f *fixture) checkTune(c *caller, body []byte) error {
	if status := c.call(body); status != http.StatusOK {
		return fmt.Errorf("tune: status %d: %s", status, bytes.TrimSpace(c.w.body))
	}
	first := append([]byte(nil), c.w.body...)
	if status := c.call(body); status != http.StatusOK || !bytes.Equal(first, c.w.body) {
		return fmt.Errorf("tune: repeat differs (status %d)", status)
	}
	var resp serve.TuneResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		return fmt.Errorf("tune: decode response: %w", err)
	}
	var req serve.TuneRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("tune: decode own request: %w", err)
	}
	cl, err := req.Cluster.Build()
	if err != nil {
		return err
	}
	plan := queryplan.NewPQP(req.Query)
	if len(resp.DegreesVector) != len(req.Query.Ops) || resp.Candidates < 1 {
		return fmt.Errorf("tune: %d degrees for %d operators, %d candidates",
			len(resp.DegreesVector), len(req.Query.Ops), resp.Candidates)
	}
	for _, op := range req.Query.Ops {
		d := resp.Degrees[fmt.Sprint(op.ID)]
		if d < 1 || d > cl.TotalCores() {
			return fmt.Errorf("tune: operator %d degree %d outside [1, %d]", op.ID, d, cl.TotalCores())
		}
		plan.SetDegree(op.ID, d)
	}
	if got := plan.DegreesVector(); fmt.Sprint(got) != fmt.Sprint(resp.DegreesVector) {
		return fmt.Errorf("tune: degrees %v disagree with degrees_vector %v", got, resp.DegreesVector)
	}
	want, err := f.ref.Predict(context.Background(), plan, cl)
	if err != nil {
		return err
	}
	if !within(resp.LatencyMs, want.LatencyMs) || !within(resp.ThroughputEPS, want.ThroughputEPS) {
		return fmt.Errorf("tune: reported (%g ms, %g eps), uncompiled model says (%g ms, %g eps)",
			resp.LatencyMs, resp.ThroughputEPS, want.LatencyMs, want.ThroughputEPS)
	}
	return nil
}

// checkNext checks the next checkSamples requests of the sequence against the warmed target, on the path each kind must take there: a repeat
// or a respelled plan is answered from a cache, a stream plan is computed —
// and then, repeated at once byte for byte, comes from the body cache.
func (r *rig) checkNext() (attempted, failed int, firstErr error) {
	cl := r.sess.clients[0]
	note := func(err error) {
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	var body []byte
	var kind reqKind
	for i := 0; i < checkSamples; i++ {
		body, kind, cl.scratch = r.sess.seq.at(r.sess.cursor.Add(1)-1, cl.scratch)
		if r.def.path == tunePath {
			note(r.fix.checkTune(cl.caller, body))
			continue
		}
		note(r.fix.checkPredict(cl.caller, body, kind != kindStream))
		if kind == kindStream {
			note(r.fix.checkPredict(cl.caller, body, true))
		}
	}
	return attempted, failed, firstErr
}
