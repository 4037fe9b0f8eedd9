package pipeline

import (
	"snmatch/internal/dataset"
	"snmatch/internal/parallel"
	"snmatch/internal/synth"
)

// Forker is implemented by pipelines that hold mutable state (RNG
// streams, network forward caches). Fork returns an independent clone
// positioned to classify the query at absolute index start: the worker
// that owns the contiguous chunk [start, end) computes exactly what the
// serial sweep would compute there, which is how RunParallel keeps its
// determinism contract for stateful pipelines. Fork itself does not
// advance the parent; RunParallel calls Advance once the sweep is done,
// so a sequence of RunParallel calls visits the same states as the same
// sequence of serial Runs.
type Forker interface {
	Pipeline
	Fork(start int) Pipeline
	// Advance moves the pipeline's state past n classifications against
	// gallery g without performing them, as if a serial Run over n
	// queries had completed. The gallery is passed because deferred
	// state may depend on it (Random's draw bound is the gallery size).
	Advance(n int, g *Gallery)
}

// Preparer is implemented by pipelines that can hoist shared-state
// mutation (lazy gallery descriptor extraction) out of Classify into a
// one-shot setup pass over the pool, removing lock contention from the
// per-query hot path.
type Preparer interface {
	Prepare(g *Gallery, workers int)
}

// RunParallel is the concurrent counterpart of Run: queries are split
// into contiguous chunks across a bounded worker pool, stateful
// pipelines are forked once per chunk, and predictions land in query
// order. The output is identical to Run for every pipeline kind.
// workers <= 0 selects one worker per CPU; any value is clamped to the
// query count, so empty and single-sample sets degrade to the serial
// path.
func RunParallel(p Pipeline, queries *dataset.Set, g *Gallery, workers int) (pred, truth []synth.Class) {
	n := queries.Len()
	w := parallel.Clamp(workers, n)
	// Prep work is sized by the gallery, not the query set, so it gets
	// the raw request; each Prepare clamps against its own item count.
	// The serial fallback prepares too: hoisting descriptor extraction
	// and flat-index construction out of the first Classify keeps the
	// per-query path identical at every worker count.
	if prep, ok := p.(Preparer); ok {
		prep.Prepare(g, workers)
	}
	if w <= 1 {
		return Run(p, queries, g)
	}
	pred = make([]synth.Class, n)
	truth = make([]synth.Class, n)
	parallel.ForEachChunk(w, n, func(_ int, s parallel.Span) {
		wp := p
		if f, ok := p.(Forker); ok {
			wp = f.Fork(s.Start)
		}
		for i := s.Start; i < s.End; i++ {
			sm := queries.Samples[i]
			pred[i] = wp.Classify(sm.Image, g).Class
			truth[i] = sm.Class
		}
	})
	if f, ok := p.(Forker); ok {
		f.Advance(n, g)
	}
	return pred, truth
}
