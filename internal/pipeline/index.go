package pipeline

import (
	"context"
	"math"
	"sync"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/obs"
	"snmatch/internal/simd"
)

// DescriptorIndex is a gallery-level flat index for §3.3 descriptor
// matching: every view's descriptors are concatenated into one
// contiguous matrix with per-view offsets, so classifying a query scans
// each query descriptor once across the whole gallery and accumulates
// per-view good-match counts — instead of running an independent 2-NN
// matcher per view over pointer-chased row slices. Results are exactly
// those of per-view match.GoodMatchCount: the 2-NN search and Lowe's
// ratio test are evaluated within each view's row range, distances stay
// in the squared (or integer Hamming) domain, and the square root is
// taken only for the two winners per (query descriptor, view) pair.
//
// The index is immutable once built; Classify-side scratch (the
// per-view count buffer and the transposed query of either scan)
// comes from internal sync.Pools so steady state matching allocates
// nothing per query.
type DescriptorIndex struct {
	Binary   bool
	NumViews int

	// Starts[v]..Starts[v+1] is the descriptor row range of view v.
	Starts []int

	// Float layout: row-major, stride Dim.
	Dim    int
	Floats []float32

	// Binary layout: word-packed rows of stride WordsPerRow.
	WordsPerRow int
	Words       []uint64

	counts    sync.Pool // *[]int32 scratch, one per concurrent classifier
	lanes     sync.Pool // *[]float32 transposed-query scratch of the float scan
	wordLanes sync.Pool // *[]uint64 transposed-query scratch of the binary scan
}

// NewDescriptorIndex concatenates the views' descriptor sets (all of
// one representation; nil or empty sets contribute empty ranges).
func NewDescriptorIndex(sets []*features.Set) *DescriptorIndex {
	ix := &DescriptorIndex{NumViews: len(sets), Starts: make([]int, len(sets)+1)}
	total := 0
	for _, s := range sets {
		if s == nil || s.Len() == 0 {
			continue
		}
		total += s.Len()
		if s.Binary {
			ix.Binary = true
		}
	}
	off := 0
	for v, s := range sets {
		ix.Starts[v] = off
		if s != nil {
			off += s.Len()
		}
	}
	ix.Starts[len(sets)] = off

	if ix.Binary {
		for _, s := range sets {
			if s == nil || s.Len() == 0 {
				continue
			}
			if ix.WordsPerRow == 0 {
				ix.WordsPerRow = s.WordsPerRow
				ix.Words = make([]uint64, total*s.WordsPerRow)
			}
			if s.WordsPerRow != ix.WordsPerRow || !s.Binary {
				panic("pipeline: inconsistent descriptor sets in index")
			}
		}
		off = 0
		for _, s := range sets {
			if s == nil || s.Len() == 0 {
				continue
			}
			copy(ix.Words[off*ix.WordsPerRow:], s.Words)
			off += s.Len()
		}
		return ix
	}

	for _, s := range sets {
		if s == nil || s.Len() == 0 {
			continue
		}
		if ix.Dim == 0 {
			ix.Dim = s.Dim
			ix.Floats = make([]float32, total*s.Dim)
		}
		if s.Dim != ix.Dim || s.Binary {
			panic("pipeline: inconsistent descriptor sets in index")
		}
	}
	off = 0
	for _, s := range sets {
		if s == nil || s.Len() == 0 {
			continue
		}
		copy(ix.Floats[off*ix.Dim:], s.Floats)
		off += s.Len()
	}
	return ix
}

// RestoreDescriptorIndex rebuilds a flat index over restored descriptor
// sets, aliasing pre-concatenated storage instead of copying it — the
// snapshot loader's constructor. floats (and words, for binary sets)
// must be exactly the view-order concatenation of the sets' rows, which
// is how the v2 snapshot blob lays a family out; this is verified by
// pointer identity against every set's own matrix, and any
// mismatch (including nil storage, the v1 path) falls back to the
// copying NewDescriptorIndex build. Either way the result is
// bit-identical to NewDescriptorIndex(sets): same Starts, same scan
// storage bytes.
func RestoreDescriptorIndex(sets []*features.Set, floats []float32, words []uint64) *DescriptorIndex {
	skel := &DescriptorIndex{NumViews: len(sets), Starts: make([]int, len(sets)+1)}
	off := 0
	for v, s := range sets {
		skel.Starts[v] = off
		if s == nil || s.Len() == 0 {
			continue
		}
		if s.Binary {
			skel.Binary = true
			skel.WordsPerRow = s.WordsPerRow
		} else {
			skel.Dim = s.Dim
		}
		off += s.Len()
	}
	skel.Starts[len(sets)] = off

	aliased := off > 0
	if skel.Binary {
		aliased = aliased && len(words) == off*skel.WordsPerRow
	} else {
		aliased = aliased && skel.Dim > 0 && len(floats) == off*skel.Dim
	}
	if aliased {
		// The storage must BE the concatenation, not merely equal it:
		// each set's matrix has to sit at its own row offset of the
		// shared backing array.
		for v, s := range sets {
			if s == nil || s.Len() == 0 {
				continue
			}
			start := skel.Starts[v]
			if skel.Binary {
				aliased = aliased && len(s.Words) > 0 && &s.Words[0] == &words[start*skel.WordsPerRow]
			} else {
				aliased = aliased && len(s.Floats) > 0 && &s.Floats[0] == &floats[start*skel.Dim]
			}
			if !aliased {
				break
			}
		}
	}
	if !aliased {
		return NewDescriptorIndex(sets)
	}
	if skel.Binary {
		skel.Words = words
		return skel
	}
	skel.Floats = floats
	return skel
}

// Len returns the total number of indexed descriptors.
func (ix *DescriptorIndex) Len() int { return ix.Starts[ix.NumViews] }

// Flat implements MatchIndex: the flat index is its own exact storage.
func (ix *DescriptorIndex) Flat() *DescriptorIndex { return ix }

// getCounts borrows a per-view count buffer from the pool. Contents
// are unspecified — Scan zeroes its output range itself.
func (ix *DescriptorIndex) getCounts() *[]int32 {
	if v := ix.counts.Get(); v != nil {
		return v.(*[]int32)
	}
	s := make([]int32, ix.NumViews)
	return &s
}

// putCounts returns a buffer to the pool.
func (ix *DescriptorIndex) putCounts(s *[]int32) { ix.counts.Put(s) }

// getScratch borrows a slice of n values from pool p, growing it when
// a larger query arrives. Contents are unspecified.
func getScratch[T any](p *sync.Pool, n int) *[]T {
	s, _ := p.Get().(*[]T)
	if s == nil {
		s = new([]T)
	}
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return s
}

// GoodMatchCounts implements MatchIndex: the full-range, untraced
// Scan under context.Background(), which never expires, so the scan
// cannot fail.
//
//snmatch:noalloc
func (ix *DescriptorIndex) GoodMatchCounts(query *features.Set, ratio float64, counts []int32) {
	_ = ix.Scan(context.Background(), query, ratio, counts, 0, ix.NumViews, nil)
}

// Scan implements MatchIndex: for every view in [v0, v1), the number of
// query descriptors whose within-view 2-NN pass Lowe's ratio test —
// exactly match.GoodMatchCount(query, view, ratio) per view, computed
// in one pass over the flat matrix. The whole scan books as match time.
//
//snmatch:noalloc
func (ix *DescriptorIndex) Scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error {
	if tr == nil {
		return ix.scan(ctx, query, ratio, counts, v0, v1)
	}
	start := time.Now()
	err := ix.scan(ctx, query, ratio, counts, v0, v1)
	tr.Add(obs.StageMatch, time.Since(start))
	return err
}

// scan is Scan's untraced body: it overwrites counts[v0:v1] and
// dispatches on the row representation.
func (ix *DescriptorIndex) scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int) error {
	clear(counts[v0:v1])
	if query.Len() == 0 || ix.Len() == 0 {
		return nil
	}
	if query.Binary != ix.Binary {
		panic("match: mixed descriptor representations")
	}
	if ix.Binary {
		return ix.binaryCounts(ctx, query, ratio, counts, v0, v1)
	}
	return ix.floatCounts(ctx, query, ratio, counts, v0, v1)
}

// floatCounts is the float kernel. It scans view by view: the query
// rows are transposed into simd.Lanes-wide blocks and each block meets
// a view's rows in one simd.Lane2NN call, whose lanes each run the
// scalar 2-NN fold of one query row. The deadline is checked once per
// view.
func (ix *DescriptorIndex) floatCounts(ctx context.Context, q *features.Set, ratio float64, counts []int32, v0, v1 int) error {
	if q.Dim != ix.Dim {
		panic("pipeline: query descriptor width does not match index")
	}
	dim, n := ix.Dim, q.Len()
	block := simd.Lanes * dim
	lp := getScratch[float32](&ix.lanes, simd.LaneBlocks(n)*block)
	defer ix.lanes.Put(lp)
	qt := *lp
	simd.TransposeLanes(qt, q.Floats[:n*dim], dim)
	for v := v0; v < v1; v++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start, end := ix.Starts[v], ix.Starts[v+1]
		if end-start < 2 {
			continue // a view needs two neighbours for the ratio test
		}
		rows := ix.Floats[start*dim : end*dim]
		for b := 0; b*simd.Lanes < n; b++ {
			s1, s2 := simd.Lane2NN(qt[b*block:(b+1)*block], rows, dim)
			for l := range min(simd.Lanes, n-b*simd.Lanes) {
				if float64(sqrt32(s1[l])) < ratio*float64(sqrt32(s2[l])) {
					counts[v]++
				}
			}
		}
	}
	return nil
}

// binaryCounts is the Hamming kernel, laid out like floatCounts: the
// query rows are transposed into simd.HammingLanes-wide blocks and
// each block meets a view's rows in one simd.HammingLane2NN call. The
// deadline is checked once per view.
func (ix *DescriptorIndex) binaryCounts(ctx context.Context, q *features.Set, ratio float64, counts []int32, v0, v1 int) error {
	if q.WordsPerRow != ix.WordsPerRow {
		panic("pipeline: query descriptor width does not match index")
	}
	wpr, n := ix.WordsPerRow, q.Len()
	if wpr == 0 {
		return nil // zero-width rows: every distance is 0, which never passes the strict ratio test
	}
	block := simd.HammingLanes * wpr
	wp := getScratch[uint64](&ix.wordLanes, simd.HammingBlocks(n)*block)
	defer ix.wordLanes.Put(wp)
	qt := *wp
	simd.TransposeHammingLanes(qt, q.Words[:n*wpr], wpr)
	for v := v0; v < v1; v++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start, end := ix.Starts[v], ix.Starts[v+1]
		if end-start < 2 {
			continue
		}
		rows := ix.Words[start*wpr : end*wpr]
		for b := 0; b*simd.HammingLanes < n; b++ {
			s1, s2 := simd.HammingLane2NN(qt[b*block:(b+1)*block], rows, wpr)
			for l := range min(simd.HammingLanes, n-b*simd.HammingLanes) {
				if float64(float32(s1[l])) < ratio*float64(float32(s2[l])) {
					counts[v]++
				}
			}
		}
	}
	return nil
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
