package main

import (
	"bytes"
	"errors"
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

	"zerotune/internal/fault"
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

// TestServeRefusesUnknownFaultPoint: -faults takes only the declared
// injection points. A schedule on any other name would never fire, so serve
// exits non-zero naming it and the points it knows, and never starts
// serving.
func TestServeRefusesUnknownFaultPoint(t *testing.T) {
	p := startCLI(t, "serve", "-model", tinyModel(t), "-addr", "127.0.0.1:0", "-faults", "feedback.promote=every1")
	for deadline := time.Now().Add(time.Minute); !p.exited(); time.Sleep(2 * time.Millisecond) {
		if listeningLine.MatchString(p.stdout.String()) || time.Now().After(deadline) {
			t.Fatalf("serve -faults feedback.promote=every1 is running\nstderr:\n%s", p.stderr.String())
		}
	}
	var exit *exec.ExitError
	stderr := p.stderr.String()
	if !errors.As(p.err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("serve -faults feedback.promote=every1 exited with %v, want non-zero\nstderr:\n%s", p.err, stderr)
	}
	if !strings.Contains(stderr, "feedback.promote") || !strings.Contains(stderr, fault.GNNForward) {
		t.Errorf("stderr names neither the refused point nor the declared ones:\n%s", stderr)
	}
	for _, point := range fault.Points {
		if _, err := parseFaultSpec(point+"=every1", 1); err != nil {
			t.Errorf("declared point %s refused: %v", point, err)
		}
	}
}
