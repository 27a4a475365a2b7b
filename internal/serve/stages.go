package serve

import (
	"time"

	"zerotune/internal/obs"
)

// Stage is one interval of a /v1/predict request. The list is the request
// path's table of contents and the only place its stages are named:
// handlePredict times each where it runs, /metrics publishes them as
// StageMetric{stage=…} and `zerotune bench` prints them.
//
// A body-cache hit is one stage, StageBodyHit, from the first byte read to the
// last byte written. Every other request is a sequence of the remaining
// stages, each ending where the next begins, so the stages of one request add
// up to its handler time; StageRespond closes every such request, whatever
// its status, and takes the time of a step that failed with it.
type Stage uint8

const (
	StageBodyHit      Stage = iota // whole request answered from the body cache
	StageFront                     // read the body, miss the body cache
	StageDecode                    // JSON decode
	StageAnalyse                   // plan analysis, size limits, cluster build, model and breaker
	StageEncode                    // placement and featurization
	StageFingerprint               // plan fingerprint
	StagePlanCache                 // plan-cache acquire: leader, follower or hit
	StageCoalesceWait              // follower: until the leader's result is published
	StageQueueWait                 // leader: until its batch's forward pass starts
	StageForward                   // leader: the batch's forward pass
	StageWake                      // leader: forward pass done until the request runs again
	StageRespond                   // publish, marshal, write, remember; or the error answer
	NumStages
)

var stageNames = [NumStages]string{
	"body_hit", "front", "decode", "analyse", "encode", "fingerprint", "plan_cache",
	"coalesce_wait", "queue_wait", "forward", "wake", "respond",
}

// String is the stage's label on /metrics.
func (s Stage) String() string { return stageNames[s] }

// StageMetric is the histogram family, in seconds, with one series per Stage.
const StageMetric = "zerotune_predict_stage_seconds"

// Stages lists every stage in request order.
func Stages() []Stage {
	all := make([]Stage, NumStages)
	for i := range all {
		all[i] = Stage(i)
	}
	return all
}

// ReadStages reads the stage histograms off a parsed /metrics page, indexed
// by Stage; a stage the page lacks reads as zero.
func ReadStages(samples []obs.Sample) [NumStages]obs.HistogramStat {
	var out [NumStages]obs.HistogramStat
	for _, st := range Stages() {
		out[st], _ = obs.FindHistogram(samples, StageMetric, obs.L("stage", st.String()))
	}
	return out
}

// stageClock times one request's stages: it remembers where the last stage
// ended, and a mark ends the next one there or now. The request ends where
// its last stage does: every mark is handed to the endpoint's StatusWriter as
// the request's end, so the stages of a request add up to its latency. It
// lives on the handler's stack.
type stageClock struct {
	hist *[NumStages]*obs.Histogram
	w    *obs.StatusWriter
	last time.Time
}

// mark ends stage st now.
func (c *stageClock) mark(st Stage) { c.markAt(st, time.Now()) }

// markAt ends stage st at t, a moment someone else clocked.
func (c *stageClock) markAt(st Stage, t time.Time) {
	c.hist[st].Observe(t.Sub(c.last).Seconds())
	c.last = t
	c.w.End(t)
}
