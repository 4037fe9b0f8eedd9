package pipeline

import (
	"sync/atomic"

	"snmatch/internal/arena"
	"snmatch/internal/obs"
)

// pipeMetrics is the pipeline's aggregate instrumentation: the
// extraction-context pool's health. All cells are pre-resolved at
// EnableObs so the record path is pure atomic arithmetic.
type pipeMetrics struct {
	ctxHits   *obs.Counter
	ctxMisses *obs.Counter
	ctxDrops  *obs.Counter
	ctxPooled *obs.Gauge
}

// pmx holds the active pipeline metrics; nil means instrumentation is
// off and every record site short-circuits on one atomic pointer load —
// the no-op baseline BenchmarkObsOverhead compares against.
var pmx atomic.Pointer[pipeMetrics]

func obsMetrics() *pipeMetrics { return pmx.Load() }

// EnableObs wires the pipeline's aggregate metrics into r and turns
// per-request stage tracing on. Registration is get-or-create, so
// repeated calls (every serve.New in a test binary) share cells.
func EnableObs(r *obs.Registry) {
	pm := &pipeMetrics{}
	pm.ctxHits = r.Counter("snmatch_ctx_pool_hits_total",
		"Extraction-context checkouts served by the warm pool.")
	pm.ctxMisses = r.Counter("snmatch_ctx_pool_misses_total",
		"Extraction-context checkouts that built a fresh context.")
	pm.ctxDrops = r.Counter("snmatch_ctx_pool_drops_total",
		"Contexts dropped at recycle because an oversized query inflated them past the pool cap.")
	pm.ctxPooled = r.Gauge("snmatch_ctx_pooled_bytes",
		"Arena bytes parked in the extraction-context pool.")
	r.CounterFunc("snmatch_arena_allocated_bytes_total",
		"Process-lifetime arena buffer capacity allocated from the heap.",
		arena.TotalAllocated)
	pmx.Store(pm)
}

// DisableObs turns pipeline instrumentation off (registered metrics
// keep their last values; nothing records into them).
func DisableObs() { pmx.Store(nil) }
