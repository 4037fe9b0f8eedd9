package pipeline

import (
	"sync/atomic"

	"snmatch/internal/arena"
	"snmatch/internal/obs"
)

// pipeMetrics is the pipeline's aggregate instrumentation: IVF scan
// statistics and the extraction-context pool's health. All cells are
// pre-resolved at EnableObs so the record path is pure atomic
// arithmetic.
type pipeMetrics struct {
	shortlist *obs.Histogram // views shortlisted per IVF scan call
	verifyPct *obs.Histogram // percent of the scanned view range verified
	probes    *obs.Histogram // inverted lists probed per IVF scan call

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
	pm.shortlist = r.Histogram("snmatch_ann_shortlist_views",
		"Views shortlisted by one IVF scan call for exact verification.",
		obs.ScaleNone)
	pm.verifyPct = r.Histogram("snmatch_ann_verify_percent",
		"Percent of the scanned view range one IVF scan call re-scored exactly.",
		obs.ScaleNone)
	pm.probes = r.Histogram("snmatch_ann_probes",
		"Inverted lists probed by one IVF scan call.",
		obs.ScaleNone)
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

// recordScan folds one IVF scan call's shortlist statistics into the
// ANN histograms: the number of shortlisted (non-zero) views in
// [v0, v1) just before exact verification, the fraction of the range
// that represents, and how many lists the probe walked. The
// count pass only runs when instrumentation is on.
func (pm *pipeMetrics) recordScan(counts []int32, v0, v1, probes int) {
	if pm == nil {
		return
	}
	n := 0
	for v := v0; v < v1; v++ {
		if counts[v] != 0 {
			n++
		}
	}
	pm.shortlist.Observe(int64(n))
	if span := v1 - v0; span > 0 {
		pm.verifyPct.Observe(int64(n * 100 / span))
	}
	pm.probes.Observe(int64(probes))
}
