package obs

import (
	"sync/atomic"
	"time"
)

// Stage enumerates the serving pipeline's per-request phases — the
// rows of a request's latency breakdown. The set is fixed so a Trace
// is a flat array instead of a map.
type Stage uint8

const (
	// StageDecode is request-body parsing: PNG (and JSON/base64)
	// decoding plus the decoded-dimension admission checks.
	StageDecode Stage = iota
	// StageAdmission is the time spent at the server's admission gate.
	StageAdmission
	// StagePropose is /detect's region-proposal phase (zero on
	// /classify traffic).
	StagePropose
	// StageQueue is one image's wait for a classification worker slot.
	StageQueue
	// StageClassify is one image's classification wall time, from
	// holding a worker slot to its prediction (extraction plus scan).
	StageClassify
	// StageExtract is descriptor extraction (decoded image -> packed
	// query set).
	StageExtract
	// StageMatch is the index scan. On a sharded gallery the shard
	// scans run concurrently and each adds its own elapsed time, so
	// this stage reads as scan CPU time, not wall time.
	StageMatch

	// NumStages bounds the Stage values.
	NumStages = iota
)

var stageNames = [NumStages]string{
	"decode", "admission", "propose", "queue", "classify", "extract", "match",
}

// String returns the stage's wire name (the stages_ms key and the
// stage label value).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the wire names of all stages in Stage order —
// the fixed label value set for a per-stage HistogramVec.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Trace is one request's stage timer: a fixed array of per-stage
// nanosecond totals that rides inside an existing request or context
// struct — it is never separately heap-allocated on the query path.
// Writes are atomic adds, so concurrent contributors (the sharded
// fan-out's workers each adding their shard's scan time) can share one
// trace; a nil *Trace discards all writes. Copying a Trace value is
// safe once its writers have finished.
type Trace struct {
	ns [NumStages]int64
}

// Reset zeroes every stage (start of a new request on a recycled
// struct).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	for i := range t.ns {
		atomic.StoreInt64(&t.ns[i], 0)
	}
}

// Add accumulates d into stage s.
//
//snmatch:noalloc
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	atomic.AddInt64(&t.ns[s], int64(d))
}

// Set replaces stage s's total.
//
//snmatch:noalloc
func (t *Trace) Set(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	atomic.StoreInt64(&t.ns[s], int64(d))
}

// Get returns stage s's accumulated time.
//
//snmatch:noalloc
func (t *Trace) Get(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&t.ns[s]))
}

// Each calls fn for every stage with a non-zero total, in Stage order
// — the allocation-free iteration the aggregating histograms use.
func (t *Trace) Each(fn func(s Stage, d time.Duration)) {
	if t == nil {
		return
	}
	for i := range t.ns {
		if ns := atomic.LoadInt64(&t.ns[i]); ns != 0 {
			fn(Stage(i), time.Duration(ns))
		}
	}
}

// MSMap renders the recorded (non-zero) stages as a stage-name ->
// milliseconds map — the response document's stages_ms field. It
// allocates and belongs on response/serialisation paths only.
func (t *Trace) MSMap() map[string]float64 {
	if t == nil {
		return nil
	}
	var out map[string]float64
	t.Each(func(s Stage, d time.Duration) {
		if out == nil {
			out = make(map[string]float64, NumStages)
		}
		out[s.String()] = float64(d) / float64(time.Millisecond)
	})
	return out
}
