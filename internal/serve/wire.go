package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
)

// Wire layer: the JSON request/response schema of the HTTP API. Plans and
// queries reuse the canonical queryplan serialization (snake_case fields,
// integer enum codes), so a plan file written for `zerotune simulate -plan`
// is a valid /v1/predict payload verbatim. The three types a request body is
// made of — PredictRequest, TuneRequest, ClusterSpec — decode themselves
// (decode.go); everything else on this page is small and goes through
// encoding/json.

// MaxBodyBytes bounds request bodies; a parallel query plan is a few KB,
// so anything near the limit is abuse, not workload. The gateway, the client
// and trace replay bound what they read by the same number.
const MaxBodyBytes = 8 << 20

// SLOClassHeader is the request header declaring the caller's SLO class. The
// gateway's admission control reads it (requests without it, or naming an
// unconfigured class, are best-effort) and forwards it with the request;
// replicas do not read it. It is spelled in canonical form (the wire is
// case-insensitive, and X-SLO-Class is the same header), so indexing an
// http.Header by it reads and writes what Header.Get and Header.Set do.
const SLOClassHeader = "X-Slo-Class"

// MaxPlanInstances and MaxClusterNodes bound what one body can make the
// server allocate: placement and encoding are linear in a plan's operator
// instances, a cluster in its nodes, and both numbers are the client's to
// write. The paper's plans run to hundreds of instances on tens of nodes.
const (
	MaxPlanInstances = 1 << 16
	MaxClusterNodes  = 1 << 12
)

// ClusterSpec describes the target cluster on the wire. Either give the
// full node list (round-tripping cluster.Cluster) or the shorthand —
// workers + node type names — which mirrors the CLI's -workers flag.
type ClusterSpec struct {
	// Full form: explicit nodes.
	Nodes []cluster.Node `json:"nodes,omitempty"`
	// Shorthand: assemble `workers` nodes round-robin from `node_types`
	// (catalogue names; default: the seen training types).
	Workers   int      `json:"workers,omitempty"`
	NodeTypes []string `json:"node_types,omitempty"`
	// LinkGbps applies to both forms (default 10).
	LinkGbps float64 `json:"link_gbps,omitempty"`
}

// Build materializes the spec into a cluster.
func (s *ClusterSpec) Build() (*cluster.Cluster, error) { return s.BuildIn(new(cluster.Cluster)) }

// BuildIn is Build reusing c's storage for the shorthand form
// (cluster.Cluster.Reset), which then returns c; the full form is a new
// cluster over the spec's own nodes, and leaves c alone.
func (s *ClusterSpec) BuildIn(c *cluster.Cluster) (*cluster.Cluster, error) {
	if n := max(s.Workers, len(s.Nodes)); n > MaxClusterNodes {
		return nil, fmt.Errorf("serve: cluster of %d nodes exceeds the limit of %d", n, MaxClusterNodes)
	}
	link := s.LinkGbps
	if link == 0 {
		link = 10
	}
	if len(s.Nodes) > 0 {
		if s.Workers != 0 && s.Workers != len(s.Nodes) {
			return nil, fmt.Errorf("serve: cluster gives %d nodes but workers=%d", len(s.Nodes), s.Workers)
		}
		if link <= 0 {
			return nil, fmt.Errorf("serve: link speed must be positive, got %v", link)
		}
		seen := make(map[string]bool, len(s.Nodes))
		for _, n := range s.Nodes {
			if n.Name == "" {
				return nil, fmt.Errorf("serve: cluster node without a name")
			}
			if seen[n.Name] {
				return nil, fmt.Errorf("serve: duplicate cluster node %q", n.Name)
			}
			seen[n.Name] = true
			if n.Type.Cores < 1 {
				return nil, fmt.Errorf("serve: node %q has %d cores", n.Name, n.Type.Cores)
			}
		}
		return &cluster.Cluster{Nodes: s.Nodes, LinkGbps: link}, nil
	}
	if s.Workers < 1 {
		return nil, fmt.Errorf("serve: cluster needs nodes or workers >= 1")
	}
	// The type list lives on the stack unless the request names more than
	// the catalogue holds; Cluster.Reset copies what it needs out of it.
	var room [8]cluster.NodeType
	types := cluster.AppendSeenTypes(room[:0])
	if len(s.NodeTypes) > 0 {
		types = types[:0]
		for _, name := range s.NodeTypes {
			t, err := cluster.TypeByName(name)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			types = append(types, t)
		}
	}
	if err := c.Reset(s.Workers, types, link); err != nil {
		return nil, err
	}
	return c, nil
}

// PredictRequest asks for the cost of one placed (or degree-annotated,
// placement is derived) parallel plan on a cluster.
type PredictRequest struct {
	Plan    *queryplan.PQP `json:"plan"`
	Cluster ClusterSpec    `json:"cluster"`
}

// PredictResponse is the model's cost estimate plus serving provenance.
type PredictResponse struct {
	LatencyMs     float64 `json:"latency_ms"`
	ThroughputEPS float64 `json:"throughput_eps"`
	// Cached reports whether the answer came from the plan-fingerprint
	// cache (including single-flight joins on an in-flight twin).
	Cached bool `json:"cached"`
	// ModelID identifies the model revision that produced the estimate.
	ModelID string `json:"model_id"`
	// Degraded reports the learned model was unavailable (circuit open or
	// forward-pass failure) and the fallback estimator produced this answer.
	Degraded bool `json:"degraded,omitempty"`
	// Fallback names the estimator that answered a degraded request
	// (currently "linreg").
	Fallback string `json:"fallback,omitempty"`
}

// TuneRequest asks the optimizer to pick parallelism degrees for a logical
// query on a cluster (Eq. 1 weighted cost over the candidate sweep).
type TuneRequest struct {
	Query   *queryplan.Query `json:"query"`
	Cluster ClusterSpec      `json:"cluster"`
	// Weight is Eq. 1's wt in [0,1], default 0.5 when omitted. A pointer so
	// an explicit 0 (throughput-only) is distinguishable from "unset".
	Weight *float64 `json:"weight,omitempty"`
	// RandomCandidates widens the candidate sweep (default 16).
	RandomCandidates *int `json:"random_candidates,omitempty"`
	// Seed drives candidate exploration (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// TuneResponse reports the recommended configuration and its estimate.
type TuneResponse struct {
	Degrees       map[string]int `json:"degrees"` // operator ID → degree
	DegreesVector []int          `json:"degrees_vector"`
	LatencyMs     float64        `json:"latency_ms"`
	ThroughputEPS float64        `json:"throughput_eps"`
	Candidates    int            `json:"candidates"`
	Cost          float64        `json:"cost"`
	ModelID       string         `json:"model_id"`
}

// ReloadRequest points the registry at a model file. An empty path re-reads
// the currently served model's file (pick up an in-place retrain).
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the swap.
type ReloadResponse struct {
	PreviousModelID string `json:"previous_model_id"`
	ModelID         string `json:"model_id"`
	Path            string `json:"path"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
	// Addr is the listener address actually bound (meaningful with
	// -addr :0, where the kernel picked the port).
	Addr string `json:"addr,omitempty"`
	// Circuit is the breaker position: "closed", "half-open" or "open".
	Circuit string    `json:"circuit,omitempty"`
	Model   ModelInfo `json:"model"`
}

// ModelInfo identifies the active model revision. Engine is the numeric
// representation of the engine that answers its predictions: "f32", or "f64"
// for a model built by hand and installed uncompiled.
type ModelInfo struct {
	ID        string `json:"id"`
	Path      string `json:"path,omitempty"`
	Params    int    `json:"params"`
	Mask      string `json:"mask"`
	Engine    string `json:"engine"`
	Gen       uint64 `json:"gen"`
	LoadedAt  string `json:"loaded_at"`
	UptimeSec int64  `json:"uptime_sec"`
}

// ErrorBody is the uniform error payload: a stable machine-readable code
// (see wireCodes) plus a human-readable message. Every error on every
// endpoint uses this one shape — `{"error":{"code":...,"message":...}}`.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// decodeJSON reads one JSON value from the request body, rejecting trailing
// garbage and oversized payloads: the way in for /v1/reload, whose body is
// one field. /v1/predict and /v1/tune read theirs with ReadBody and decode
// it themselves.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after request body")
	}
	return nil
}

// ReadBody reads the whole request body into buf, growing it as needed, and
// returns the filled slice; the body is then at EOF. A body longer than
// MaxBodyBytes fails with the error http.MaxBytesReader gives it, and a body
// that fails is drained. The limit is counted here, not by a wrapping reader,
// so that into a buffer with room to spare a read allocates nothing: the
// replica reads into a warm pooled one, the gateway into one presized to a
// short declared length. Each tier prefixes the error with its own name.
func ReadBody(r *http.Request, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, minBodyGrowth)
		}
		// One byte past the limit is enough to know it was passed.
		n, err := r.Body.Read(buf[len(buf):min(cap(buf), MaxBodyBytes+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > MaxBodyBytes {
			err = &http.MaxBytesError{Limit: MaxBodyBytes}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			drainBody(r)
			return nil, err
		}
	}
}

// minBodyGrowth is the least ReadBody grows a full buffer by, io.ReadAll's
// first size: a body of unknown length is read in a few growths, not one per
// doubling from eight bytes.
const minBodyGrowth = 512

// WriteJSON writes v as JSON with the given status: every answer of both
// tiers that is not a byte-for-byte pass-through.
//
// A value encoding/json cannot encode — a NaN or infinite number — is
// answered with the 500 envelope instead: the status is written only once
// the body is known to encode.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(errorResponse{Error: ErrorBody{
			Code:    ErrorCode(status, err),
			Message: fmt.Sprintf("serve: encode response: %v", err),
		}})
	}
	SetJSONContentType(w.Header())
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// jsonContentType is the Content-Type value of every JSON answer and every
// Backend call's POST, in canonical form and shared: assigning it costs
// nothing, where Header.Set allocates a fresh slice each time. Its capacity
// is its length, so a caller that appends to the header value copies it
// first.
var jsonContentType = []string{"application/json"}

// SetJSONContentType marks the message whose header is h as JSON.
func SetJSONContentType(h http.Header) { h["Content-Type"] = jsonContentType }

// appendPredictHead appends what encoding/json writes for a PredictResponse
// (HTML escaping off) up to the value of its cached field:
// `{"latency_ms":<lat>,"throughput_eps":<tpt>,"cached":`. The estimates are
// finite: the batcher fails any other (errNonFinite), and the plan cache keeps
// only what it answered.
func appendPredictHead(dst []byte, lat, tpt float64) []byte {
	dst = append(dst, `{"latency_ms":`...)
	dst = appendJSONFloat(dst, lat)
	dst = append(dst, `,"throughput_eps":`...)
	dst = appendJSONFloat(dst, tpt)
	return append(dst, `,"cached":`...)
}

// appendJSONFloat appends the finite f as encoding/json writes a float64: the
// shortest representation that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with a two-digit negative exponent cut to one digit
// ("e-09" becomes "e-9").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// degreesByOp renders a plan's parallelism per operator with the operator ID
// as a string key (JSON object keys must be strings). encoding/json writes
// map keys sorted as strings, so "10" comes before "2".
func degreesByOp(p *queryplan.PQP) map[string]int {
	out := make(map[string]int, len(p.Query.Ops))
	for _, o := range p.Query.Ops {
		out[strconv.Itoa(o.ID)] = p.Degree(o.ID)
	}
	return out
}

// drainBody discards any unread remainder so keep-alive connections reuse
// cleanly: what a handler that does not read its body to EOF defers.
func drainBody(r *http.Request) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, MaxBodyBytes))
	_ = r.Body.Close()
}
