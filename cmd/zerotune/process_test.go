package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// cliEnv, set to 1 in the test binary's environment, makes TestMain run the
// zerotune command line in os.Args instead of the tests. A test starts the
// CLI as a process of its own that way — to signal it, kill it, or have two
// of them talk over a socket — without a separate build.
const cliEnv = "ZEROTUNE_TEST_RUN_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockedBuffer collects a child's output while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// cliProcess is `zerotune <args>` running as a child process.
type cliProcess struct {
	cmd            *exec.Cmd
	stdout, stderr lockedBuffer
	done           chan struct{}
	err            error // cmd.Wait's, once done is closed
}

// startCLI starts `zerotune name args...` as a child, as runCLI runs it in
// process; the test's cleanup kills whatever is still running.
func startCLI(t *testing.T, name string, args ...string) *cliProcess {
	t.Helper()
	p := &cliProcess{cmd: exec.Command(os.Args[0], append([]string{name}, args...)...), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), cliEnv+"=1")
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill()
		<-p.done
	})
	return p
}

func (p *cliProcess) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitFor polls cond until it holds; the child exiting first, or a minute
// passing, fails the test.
func (p *cliProcess) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(2 * time.Millisecond) {
		if p.exited() || time.Now().After(deadline) {
			t.Fatalf("%s never happened (exited: %v, %v)\nstderr:\n%s", what, p.exited(), p.err, p.stderr.String())
		}
	}
}

var listeningLine = regexp.MustCompile(`listening on (http://\S+)`)

// url waits for the "listening on http://host:port" line a listening command
// prints once bound, and returns the base URL.
func (p *cliProcess) url(t *testing.T) string {
	t.Helper()
	var url string
	p.waitFor(t, "listening on", func() bool {
		m := listeningLine.FindStringSubmatch(p.stdout.String())
		if m != nil {
			url = m[1]
		}
		return m != nil
	})
	return url
}

// signal sends sig and waits for the child to exit; it must exit cleanly.
func (p *cliProcess) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		t.Fatalf("no exit within a minute of %v\nstderr:\n%s", sig, p.stderr.String())
	}
	if p.err != nil {
		t.Fatalf("exit after %v: %v\nstderr:\n%s", sig, p.err, p.stderr.String())
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v: %s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// TestServeAndGatewayCLI: the binary wires serve and gateway to a socket.
// `serve -addr 127.0.0.1:0` answers /healthz on the f32 engine; a `gateway
// -backends` over it names the replica on its own /healthz; SIGTERM drains
// both to a clean exit, and the gateway's digest reports its SLO class. What
// the served model answers and exports is TestServeModelFileSmoke's in
// internal/serve; the gateway's routing and failover, internal/gateway's.
func TestServeAndGatewayCLI(t *testing.T) {
	replica := startCLI(t, "serve", "-model", tinyModel(t), "-addr", "127.0.0.1:0")
	url := replica.url(t)
	if h := httpGet(t, url+"/healthz"); !strings.Contains(h, `"engine":"f32"`) {
		t.Errorf("serve /healthz: %s, want engine f32", h)
	}

	gw := startCLI(t, "gateway", "-addr", "127.0.0.1:0", "-backends", url, "-slo", "gold=500:500:10,best-effort=0")
	if h := httpGet(t, gw.url(t)+"/healthz"); !strings.Contains(h, `"name":"replica-0"`) {
		t.Errorf("gateway /healthz: %s, want replica-0", h)
	}
	gw.signal(t, syscall.SIGTERM)
	if !strings.Contains(gw.stderr.String(), "gateway: class gold") {
		t.Errorf("gateway drain digest has no class gold line:\n%s", gw.stderr.String())
	}
	replica.signal(t, syscall.SIGTERM)
}

// TestTrainResumesByteIdentically: a checkpointed training run stopped half
// way — SIGKILL at any point after a checkpoint is durable, or SIGTERM, which
// checkpoints at the next epoch boundary — resumes to a model file
// byte-identical to the uninterrupted run's, and the completed resume removes
// its checkpoint. The interrupted run must not have finished: it wrote no
// model file.
func TestTrainResumesByteIdentically(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	size := []string{"-n", "400", "-epochs", "60", "-hidden", "16", "-seed", "3"}
	runCLI(t, "train", append(size, "-out", path("full.json"))...)
	full, err := os.ReadFile(path("full.json"))
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		_, err := os.Stat(path(name))
		return err == nil
	}

	for _, tc := range []struct {
		name  string
		sig   os.Signal
		every string
	}{
		{"kill", syscall.SIGKILL, "2"},
		{"term", syscall.SIGTERM, "5"},
	} {
		out, ckpt := tc.name+".json", tc.name+".ckpt"
		p := startCLI(t, "train", append(size, "-out", path(out), "-checkpoint", path(ckpt), "-checkpoint-every", tc.every)...)
		p.waitFor(t, tc.name+": first checkpoint", func() bool {
			fi, err := os.Stat(path(ckpt))
			return err == nil && fi.Size() > 0
		})
		if tc.sig == syscall.SIGKILL {
			_ = p.cmd.Process.Kill()
			<-p.done
		} else {
			p.signal(t, tc.sig)
		}
		if !exists(ckpt) || exists(out) {
			t.Fatalf("%s: after the signal, checkpoint present %v, model file present %v; want the run stopped half way",
				tc.name, exists(ckpt), exists(out))
		}

		runCLI(t, "train", "-resume", path(ckpt), "-out", path(out))
		resumed, err := os.ReadFile(path(out))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, full) {
			t.Errorf("%s: the resumed model differs from the uninterrupted run's", tc.name)
		}
		if exists(ckpt) {
			t.Errorf("%s: the completed resume left its checkpoint behind", tc.name)
		}
	}
}

// learnPlan is the two-operator predict request the learning loop is driven
// with.
func learnPlan(t *testing.T, degree, rate int) *serve.PredictRequest {
	t.Helper()
	body := fmt.Sprintf(`{"plan": {"query": {"ops": [
		{"id": 0, "type": 0, "tuple_width_in": 4, "tuple_width_out": 4, "tuple_data_type": 2, "selectivity": 1, "event_rate": %d},
		{"id": 1, "type": 4, "tuple_width_in": 4, "tuple_width_out": 4, "tuple_data_type": 2, "selectivity": 1}],
		"edges": [{"from": 0, "to": 1, "partitioning": 1}]},
		"parallelism": {"0": %d, "1": 1}},
		"cluster": {"workers": 4, "link_gbps": 10}}`, rate, degree)
	var req serve.PredictRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// TestServeLearnLoop drives `serve -learn` through the closed loop with
// internal/client: predict, report each fingerprint back with observed
// latency three times the prediction (MAPE 2, far over the 0.5 threshold),
// and wait for the learner's asynchronous outcome. Unfaulted, a fine-tune
// promotes a new generation and its artifact lands in -learn-dir; with
// -faults feedback.promote=every1 every promotion is rolled back and the
// served file stays the original. Malformed feedback is the enveloped 400
// bad_request either way, and /metrics carries the loop's series.
func TestServeLearnLoop(t *testing.T) {
	model := tinyModel(t)
	for _, tc := range []struct {
		mode   string
		faults []string
		stderr string
	}{
		{"promote", nil, "continual learning enabled"},
		{"rollback", []string{"-faults", "feedback.promote=every1"}, "fault injection active"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append([]string{"-model", model, "-addr", "127.0.0.1:0",
				"-learn", "-learn-min-samples", "4", "-learn-epochs", "2", "-learn-max-regress", "10",
				"-learn-dir", dir, "-drift-min-samples", "4", "-drift-mape", "0.5"}, tc.faults...)
			p := startCLI(t, "serve", args...)
			c, err := client.New(p.url(t))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			h0, err := c.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}

			var apiErr *client.APIError
			_, err = c.Feedback(ctx, &serve.FeedbackRequest{Fingerprint: "zz", ObservedLatencyMs: 1, ObservedThroughputEPS: 1})
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
				t.Fatalf("malformed feedback: err = %v, want the 400 bad_request envelope", err)
			}

			for i := 0; i < 12; i++ {
				resp, err := c.Predict(ctx, learnPlan(t, 1+i%4, 10000*(1+i%6)))
				if err != nil {
					t.Fatal(err)
				}
				if resp.Fingerprint == "" {
					t.Fatal("a learning server stamped no fingerprint")
				}
				fb, err := c.Feedback(ctx, &serve.FeedbackRequest{Fingerprint: resp.Fingerprint,
					ObservedLatencyMs: 3 * resp.LatencyMs, ObservedThroughputEPS: resp.ThroughputEPS})
				if err != nil || !fb.Accepted {
					t.Fatalf("feedback %d: %+v, %v", i, fb, err)
				}
			}

			// In rollback mode every promotion is undone, so the served artifact
			// settles back on the original path.
			var h *serve.HealthResponse
			p.waitFor(t, tc.mode+" outcome", func() bool {
				if h, err = c.Health(ctx); err != nil {
					t.Fatal(err)
				}
				if tc.mode == "promote" {
					return h.Learn.Promotions >= 1 && h.Model.Gen > h0.Model.Gen
				}
				return h.Learn.Rollbacks >= 1 && h.Model.Path == h0.Model.Path
			})
			if l := h.Learn; l.DriftTrips < 1 || l.FineTunes < 1 || (tc.mode == "promote" && l.Rollbacks != 0) {
				t.Errorf("learn state %+v", *l)
			}

			samples, err := obs.ParseText(strings.NewReader(httpGet(t, c.Base()+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			outcome := "zerotune_promotions_total"
			if tc.mode == "rollback" {
				outcome = "zerotune_rollbacks_total"
			}
			for _, m := range []struct {
				name string
				min  float64
			}{
				{"zerotune_drift_trips_total", 1},
				{"zerotune_drift_mape", 0},
				{"zerotune_finetune_runs_total", 1},
				{"zerotune_feedback_ingested_total", 12},
				{outcome, 1},
			} {
				if v, ok := obs.FindSample(samples, m.name); !ok || !(v >= m.min) {
					t.Errorf("%s = %v (exported %v), want ≥ %v", m.name, v, ok, m.min)
				}
			}

			if tc.mode == "promote" {
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, e := range entries {
					found = found || strings.Contains(e.Name(), "candidate-gen")
				}
				if !found {
					t.Errorf("no candidate-gen artifact in -learn-dir: %v", entries)
				}
			}
			p.signal(t, syscall.SIGTERM)
			if stderr := p.stderr.String(); !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}
