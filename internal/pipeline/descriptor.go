package pipeline

import (
	"context"
	"runtime"
	"sync"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/obs"
)

// QueryStats carries per-query serving timings alongside a Prediction.
// Match is populated only while pipeline instrumentation is on
// (EnableObs); on a sharded gallery it is CPU time summed across the
// shard workers, not wall time.
type QueryStats struct {
	Extract time.Duration // descriptor extraction (PNG-decoded image -> packed query set)
	Match   time.Duration // index scan
}

// Descriptor is the §3.3 pipeline: extract SIFT, SURF or ORB features
// from the query, match against the gallery-level flat descriptor index
// (DescriptorIndex), apply Lowe's ratio test, and predict the view with
// the most surviving matches. The paper's reported configuration uses
// ratio 0.5.
//
// Extraction runs on pooled per-worker contexts (ExtractCtx): Classify
// checks a context out of the pipeline's free list, extracts into it,
// and recycles it after the scan, so the warm query path performs no
// heap allocation from grayscale conversion to the flat-index counts.
type Descriptor struct {
	Kind   DescriptorKind
	Ratio  float64 // ratio-test threshold (paper tests 0.75 and 0.5)
	Params DescriptorParams

	// free holds warm extraction contexts for concurrent Classify
	// calls: every RunParallel worker and serving goroutine checks a
	// private context out per query and returns it warmed, so one
	// shared pipeline instance serves any degree of concurrency with
	// zero steady-state allocation. (The pipeline is stateless with
	// respect to the query stream, so no Forker clone is needed — the
	// free list is the per-worker context mechanism.)
	//
	// It is a LIFO of at most GOMAXPROCS contexts rather than a
	// sync.Pool: a pool's per-P caches miss while a warm context sits
	// idle on another P, so queries spread over many goroutines build
	// extra multi-MiB contexts; the LIFO hands out the warmest one from
	// any goroutine, and no more contexts stay parked than can run at
	// once. The zero list is empty and ready to use.
	mu   sync.Mutex
	free []*ExtractCtx
}

// NewDescriptor builds the pipeline with default extractor parameters.
func NewDescriptor(kind DescriptorKind, ratio float64) *Descriptor {
	return &Descriptor{Kind: kind, Ratio: ratio, Params: DefaultDescriptorParams()}
}

// Name implements Pipeline.
func (p *Descriptor) Name() string { return p.Kind.String() }

// getCtx checks the most recently returned extraction context out of
// the free list, creating one when the list is empty.
func (p *Descriptor) getCtx() *ExtractCtx {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		if pm := obsMetrics(); pm != nil {
			pm.ctxMisses.Inc()
		}
		return NewExtractCtx()
	}
	c := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	if pm := obsMetrics(); pm != nil {
		pm.ctxHits.Inc()
		pm.ctxPooled.Add(-int64(c.arena.Footprint()))
	}
	return c
}

// maxPooledCtxBytes caps the arena footprint a context may carry back
// into the free list. Arenas never shrink, so without the cap one
// oversized query would pin its high-water working set in a pooled
// context for the life of the process. 128 MiB comfortably holds the
// pyramids of ~512px queries; anything beyond is served correctly but
// its context is dropped.
const maxPooledCtxBytes = 128 << 20

// putCtx recycles the context's buffers and pushes it onto the free
// list, unless an oversized query inflated it past maxPooledCtxBytes or
// the list already holds GOMAXPROCS contexts — then it is dropped for
// GC. Everything the context's arena backed — including the query set
// the last extraction returned — is invalid afterwards.
func (p *Descriptor) putCtx(c *ExtractCtx) {
	c.Reset()
	pm := obsMetrics()
	if c.arena.Footprint() > maxPooledCtxBytes {
		if pm != nil {
			pm.ctxDrops.Inc()
		}
		return
	}
	p.mu.Lock()
	if len(p.free) >= runtime.GOMAXPROCS(0) {
		p.mu.Unlock()
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
	if pm != nil {
		pm.ctxPooled.Add(int64(c.arena.Footprint()))
	}
}

// classifyOn is the single copy of the pooled query protocol —
// context checkout, timed extraction, one scan of the given matching
// index, recycle — shared by the offline (Descriptor.Classify) and
// serving (ShardedGallery.ClassifyStatsCtx) paths so the checkout
// discipline cannot drift between them.
// The stage trace rides the pooled context (never a fresh heap object):
// with instrumentation on, extraction and scan times land in ctx.Trace
// and surface through QueryStats; with it off the scan gets a nil
// trace and skips its clock entirely.
//
// ctx is the request deadline: cancellation checkpoints sit before
// extraction and inside the scan (once per view, and — on a sharded
// index — before every shard's scan), so an expired request stops
// burning CPU at the next checkpoint instead of running to
// completion. The returned error is the context's; a non-nil error
// means the prediction was not computed. Every checkpoint is a plain
// ctx.Err() call, so the warm path stays allocation-free.
func (p *Descriptor) classifyOn(ctx context.Context, img *imaging.Image, g *Gallery, mi MatchIndex) (Prediction, QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return Prediction{}, QueryStats{}, err
	}
	c := p.getCtx()
	var tr *obs.Trace
	if obsMetrics() != nil {
		tr = &c.Trace
		tr.Reset()
	}
	start := time.Now() //lint:allow determinism feeds QueryStats.Extract timing only; predictions never read the clock
	q := ExtractDescriptorsCtx(img, p.Kind, p.Params, c)
	stats := QueryStats{Extract: time.Since(start)}
	tr.Set(obs.StageExtract, stats.Extract)
	pred, err := classifyCounts(ctx, g, mi, q, p.Ratio, tr)
	stats.Match = tr.Get(obs.StageMatch)
	p.putCtx(c)
	return pred, stats, err
}

// Classify implements Pipeline. The per-view good-match counts come
// from one scan of the gallery's flat index, whose count scratch is
// pooled, so steady-state matching allocates nothing per query. An
// unprepared gallery builds its index on first use through the
// mutex-guarded cache, so concurrent Classify calls against a shared
// gallery are safe. Results are identical to
// brute-force per-view matching (classifyPerView).
func (p *Descriptor) Classify(img *imaging.Image, g *Gallery) Prediction {
	pred, _, _ := p.classifyOn(context.Background(), img, g, g.MatchIndexFor(p.Kind, p.Params))
	return pred
}

// classifyCounts runs one good-match-count scan over pooled scratch and
// selects the winning view — the shared tail of offline and served
// descriptor classification, kept in one place so the first-best
// tie-break and Score semantics cannot drift between the two paths.
// A non-nil error is the scan's context error: the counts are
// incomplete and no prediction is returned — a partially-scanned
// gallery must never masquerade as a result.
//
//snmatch:noalloc
func classifyCounts(ctx context.Context, g *Gallery, mi MatchIndex, q *features.Set, ratio float64, tr *obs.Trace) (Prediction, error) {
	ix := mi.Flat()
	countsPtr := ix.getCounts()
	counts := *countsPtr
	if err := mi.Scan(ctx, q, ratio, counts, 0, ix.NumViews, tr); err != nil {
		ix.putCounts(countsPtr)
		return Prediction{}, err
	}
	best := Prediction{Index: -1, Score: -1}
	//lint:allow ctxcheckpoint bounded argmax over per-view counts runs in microseconds; the scan that filled counts already honoured ctx
	for i := range counts {
		if score := float64(counts[i]); score > best.Score {
			best = Prediction{Class: g.ClassOf(i), Index: i, Score: score}
		}
	}
	ix.putCounts(countsPtr)
	return best, nil
}

// Prepare implements Preparer: extracting every gallery descriptor and
// building the flat index up front across the pool keeps lock traffic
// and one-shot index construction out of the per-query loop.
func (p *Descriptor) Prepare(g *Gallery, workers int) {
	g.PrepareDescriptorsWorkers(p.Kind, p.Params, workers)
}
