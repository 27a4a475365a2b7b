package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// reqKind says how one request relates to what the target has already seen;
// it is what decides which serve path answers it.
type reqKind uint8

const (
	// kindRepeat is a byte-identical repeat from a small pool: answered by
	// the body cache on /v1/predict.
	kindRepeat reqKind = iota
	// kindRespelled is a pool plan under a unique "client_request_id" field:
	// new bytes (body-cache miss), same featurized plan (fingerprint hit).
	kindRespelled
	// kindStream cycles a pool four times either cache, so by the time a
	// plan comes round again both caches have evicted it: always a miss.
	kindStream
)

// workloadDef is one traffic mix; BENCHMARK.json and README.md say why each
// exists.
type workloadDef struct {
	name    string
	path    string
	gateway bool      // drive gateway.Gateway over two replicas, not one serve.Server
	clients int       // in-flight client goroutines; 0 means GOMAXPROCS
	pattern []reqKind // per-client request kinds, repeated forever
	repeatN int       // size of the repeat pool
	streamN int       // size of the cyclic stream pool
	warm    int       // untimed warm-up requests, all clients together
}

const (
	predictPath = "/v1/predict"
	tunePath    = "/v1/tune"
)

const (
	hotBodies = 64    // fits both 4096-entry caches
	mixHotSet = 256   // gateway_mix hot plans
	coldPlans = 16384 // 4x either cache
	// tuneQueries is large because one tune costs 0.3-4 ms depending on the
	// query: a small pool makes the workload's mean cost a property of the seed.
	tuneQueries = 512
	// coldClients equals serve.DefaultMaxBatch: batches flush full, so the
	// cold run is CPU-bound instead of timing the 2 ms batch-window timer.
	coldClients = 64
)

var workloads = []workloadDef{
	// Every request is a byte-identical repeat answered by the body cache.
	{
		name: "predict_hot", path: predictPath,
		pattern: []reqKind{kindRepeat}, repeatN: hotBodies, warm: 20000,
	},
	// Every request misses both caches and runs the whole pipeline, in full
	// batches, at saturation.
	{
		name: "predict_cold", path: predictPath, clients: coldClients,
		pattern: []reqKind{kindStream}, streamN: coldPlans, warm: coldPlans,
	},
	// 60 % body hits, 20 % respelled plan hits, 20 % misses, behind the gateway.
	{
		name: "gateway_mix", path: predictPath, gateway: true,
		pattern: []reqKind{kindRepeat, kindRespelled, kindRepeat, kindStream, kindRepeat,
			kindRepeat, kindRespelled, kindRepeat, kindStream, kindRepeat},
		repeatN: mixHotSet, streamN: coldPlans, warm: 4096,
	},
	// The optimizer's candidate sweep; no cache, no batcher.
	{
		name: "tune", path: tunePath,
		pattern: []reqKind{kindRepeat}, repeatN: tuneQueries, warm: 512,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sequence is the deterministic request stream of one workload: the g-th
// request is a pure function of g and the seeded pools, so a run sends the
// same bytes in the same order whatever the timing or the client count.
// Clients claim the next g from one shared cursor; a client that runs ahead
// therefore cannot lap the stream pool on its own and turn misses into hits.
type sequence struct {
	pattern []reqKind
	repeat  [][]byte
	stream  [][]byte
	// before[i][kind] counts requests of that kind among pattern[:i].
	before [][3]uint64
	per    [3]uint64
}

func newSequence(pattern []reqKind, repeat, stream [][]byte) *sequence {
	s := &sequence{pattern: pattern, repeat: repeat, stream: stream}
	s.before = make([][3]uint64, len(pattern))
	for i, kind := range pattern {
		s.before[i] = s.per
		s.per[kind]++
	}
	return s
}

// appendRespelled writes body into dst under a unique "client_request_id"
// first field: new bytes, same plan.
func appendRespelled(dst []byte, id uint64, body []byte) []byte {
	dst = append(dst[:0], `{"client_request_id":"`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `",`...)
	return append(dst, body[1:]...)
}

// at returns the g-th body and its kind. A respelled body is built in
// scratch (returned for reuse); the other kinds return pool bytes as is.
func (s *sequence) at(g uint64, scratch []byte) (body []byte, kind reqKind, _ []byte) {
	n := uint64(len(s.pattern))
	kind = s.pattern[g%n]
	// nth counts the earlier requests of the same kind: each kind walks its
	// own pool round-robin.
	nth := (g/n)*s.per[kind] + s.before[g%n][kind]
	switch kind {
	case kindStream:
		return s.stream[nth%uint64(len(s.stream))], kind, scratch
	case kindRespelled:
		scratch = appendRespelled(scratch, g, s.repeat[nth%uint64(len(s.repeat))])
		return scratch, kind, scratch
	default:
		return s.repeat[nth%uint64(len(s.repeat))], kind, scratch
	}
}

// sequenceDigestLen is how many requests the digest covers.
const sequenceDigestLen = 8192

// digest is the sha256 of the first sequenceDigestLen bodies: the proof that
// two runs with one seed sent the same requests.
func (s *sequence) digest() string {
	h := sha256.New()
	var scratch, body []byte
	for g := uint64(0); g < sequenceDigestLen; g++ {
		body, _, scratch = s.at(g, scratch)
		h.Write(body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
