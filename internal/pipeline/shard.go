package pipeline

import (
	"context"
	"sync"

	"snmatch/internal/fault"
	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/obs"
	"snmatch/internal/parallel"
)

// ShardedIndex splits a flat index into contiguous view ranges at its
// Starts boundaries, so one query can be scanned by
// several workers at once. Shards never cut through a view: the
// within-view 2-NN search and ratio test are evaluated by exactly one
// shard with exactly the arithmetic of the unsharded scan, and every
// shard writes a disjoint range of the shared per-view count buffer —
// so sharded results are bit identical to the unsharded index at every
// shard count: Scan's contract is per-view results independent of the
// [v0, v1) split.
//
// Shard boundaries are balanced by descriptor rows (the scan cost), not
// by view count: galleries with uneven views per class still split into
// near-equal work.
type ShardedIndex struct {
	ix    *DescriptorIndex
	spans []parallel.Span // non-empty view ranges partitioning [0, NumViews)
}

// NewShardedIndex shards ix into at most `shards` row-balanced view
// ranges (shards <= 1 keeps the whole index as one shard; a shard count
// beyond the view count degrades to one view per shard).
func NewShardedIndex(ix *DescriptorIndex, shards int) *ShardedIndex {
	sx := &ShardedIndex{ix: ix}
	nv := ix.NumViews
	if shards < 1 {
		shards = 1
	}
	if shards > nv {
		shards = nv
	}
	if nv == 0 || shards <= 1 {
		if nv > 0 {
			sx.spans = []parallel.Span{{Start: 0, End: nv}}
		}
		return sx
	}
	// Cut s (1 <= s < shards) lands on the first view whose start row
	// reaches the s-th row quantile; Starts is nondecreasing, so the
	// bounds are too, and together with 0 and NumViews they partition
	// the view range. Coinciding cuts (a view larger than a quantile)
	// collapse to fewer, still-disjoint shards.
	rows := ix.Len()
	bounds := make([]int, 0, shards+1)
	bounds = append(bounds, 0)
	v := 0
	for s := 1; s < shards; s++ {
		target := rows * s / shards
		for v < nv && ix.Starts[v] < target {
			v++
		}
		bounds = append(bounds, v)
	}
	bounds = append(bounds, nv)
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] > bounds[i] {
			sx.spans = append(sx.spans, parallel.Span{Start: bounds[i], End: bounds[i+1]})
		}
	}
	return sx
}

// Flat implements MatchIndex.
func (sx *ShardedIndex) Flat() *DescriptorIndex { return sx.ix }

// Spans returns a copy of the shard view ranges.
func (sx *ShardedIndex) Spans() []parallel.Span {
	out := make([]parallel.Span, len(sx.spans))
	copy(out, sx.spans)
	return out
}

// GoodMatchCounts implements MatchIndex: the full-range, untraced
// Scan under context.Background(), which never expires, so the scan
// cannot fail.
//
//snmatch:noalloc
func (sx *ShardedIndex) GoodMatchCounts(query *features.Set, ratio float64, counts []int32) {
	_ = sx.Scan(context.Background(), query, ratio, counts, 0, sx.ix.NumViews, nil)
}

// Scan implements MatchIndex by scanning the shards' intersections with
// [v0, v1) concurrently on the worker pool (one worker per shard).
// Every worker adds its own elapsed match time into the shared trace,
// so on a multi-shard scan that stage reads as CPU time summed across
// workers, not wall time. A single-span index scans inline,
// without the fan-out closure, so it stays allocation-free.
//
//snmatch:noalloc
func (sx *ShardedIndex) Scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error {
	if len(sx.spans) <= 1 {
		return sx.scanSpan(ctx, query, ratio, counts, v0, v1, tr)
	}
	parallel.ForEach(len(sx.spans), len(sx.spans), func(s int) { //lint:allow noalloc one fan-out closure per sharded scan, amortized over the shards it launches; the flat path stays 0 allocs/op
		sp := sx.spans[s]
		if lo, hi := max(sp.Start, v0), min(sp.End, v1); lo < hi {
			_ = sx.scanSpan(ctx, query, ratio, counts, lo, hi, tr) // a failed span's error is ctx's, returned below
		}
	})
	return ctx.Err()
}

// scanSpan is one shard's scan: it re-checks ctx first, so a request
// whose deadline expired mid-fan-out skips its remaining shards instead
// of finishing the whole gallery. The shard-scan fault point fires here,
// once per span: latency rules stretch one shard's scan, and error and
// panic rules panic out of the fan-out for the per-request recovery
// (parallel.ForEach re-panics in the submitting goroutine).
//
//snmatch:noalloc
func (sx *ShardedIndex) scanSpan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ferr := fault.Check(fault.ShardScan); ferr != nil {
		panic(ferr)
	}
	return sx.ix.Scan(ctx, query, ratio, counts, v0, v1, tr)
}

// ShardedGallery pairs a prepared Gallery with per-kind sharded indexes,
// the unit the serving registry hands out: descriptor queries fan out
// across the shards for low latency, every other pipeline classifies
// against the wrapped gallery unchanged.
type ShardedGallery struct {
	G      *Gallery
	Shards int // requested shard count (<= 1 disables the fan-out)

	mu      sync.RWMutex
	sharded map[DescriptorKind]*ShardedIndex
}

// NewShardedGallery wraps g for sharded serving.
func NewShardedGallery(g *Gallery, shards int) *ShardedGallery {
	if shards < 1 {
		shards = 1
	}
	return &ShardedGallery{G: g, Shards: shards, sharded: map[DescriptorKind]*ShardedIndex{}}
}

// ShardedIndexFor returns the sharded view of the gallery's matching
// index for the given kind, building (and caching) both on first use.
// Like the flat index cache it is safe under concurrent Classify
// traffic: the split is a pure function of the index, so racing
// builders agree and the first store wins.
func (s *ShardedGallery) ShardedIndexFor(kind DescriptorKind, p DescriptorParams) *ShardedIndex {
	s.mu.RLock()
	sx := s.sharded[kind]
	s.mu.RUnlock()
	if sx != nil {
		return sx
	}
	sx = NewShardedIndex(s.G.MatchIndexFor(kind, p), s.Shards)
	s.mu.Lock()
	if cur := s.sharded[kind]; cur != nil {
		sx = cur
	} else {
		s.sharded[kind] = sx
	}
	s.mu.Unlock()
	return sx
}

// ClassifyStatsCtx routes one query through the sharded engine under a
// request deadline: descriptor pipelines extract once on a pooled
// context and scan all shards in parallel, reporting per-query timings;
// every other pipeline runs its ordinary single-threaded Classify after
// one ctx check at entry (its classification is a single unsliceable
// pass). Predictions are bit-identical to the unsharded pipeline at
// every shard count. A non-nil error is the context's, and means no
// prediction was computed.
func (s *ShardedGallery) ClassifyStatsCtx(ctx context.Context, p Pipeline, img *imaging.Image) (Prediction, QueryStats, error) {
	d, ok := p.(*Descriptor)
	if !ok {
		if err := ctx.Err(); err != nil {
			return Prediction{}, QueryStats{}, err
		}
		return p.Classify(img, s.G), QueryStats{}, nil
	}
	return d.classifyOn(ctx, img, s.G, s.ShardedIndexFor(d.Kind, d.Params))
}
