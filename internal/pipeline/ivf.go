package pipeline

import (
	"context"
	"math"
	mbits "math/bits"
	"sync"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/obs"
	"snmatch/internal/parallel"
	"snmatch/internal/rng"
)

// ivfMaxTrain caps the k-majority training sample: the training
// iterations run over at most this many rows, then one assignment pass
// places every row. Sampling keeps the build near-linear in the gallery
// while the centroids stay representative.
const ivfMaxTrain = 4096

// ivfIters is the k-majority training iteration count, and ivfSeed
// seeds its sample and initial centroids: equal galleries build
// identical lists on every platform.
const (
	ivfIters = 6
	ivfSeed  = 1 ^ 0x1f5b1e5ced1a7a11
)

// ivfHorizonScale discounts the probe horizon in the single-candidate
// shortlist rule. The horizon (distance to the nearest unprobed
// centroid) underestimates how far unseen rows really are — a cell's
// members spread around its centroid — so a view whose lone candidate
// sits within ivfHorizonScale*ratio*horizon of the query is near enough
// that an unseen second neighbour would likely pass the ratio test.
// Swept on the large synthetic galleries: 0.4-0.6 all hold recall@1
// ≥ 0.99 against the flat scan; 0.5 takes the middle of that plateau
// and drops roughly half of the undiscounted rule's verification cost.
const ivfHorizonScale = 0.5

// IVFIndex is inverted-file coarse quantization over the flat index's
// binary rows (the FAISS IVF-flat layout, adapted to the per-view ratio
// test): a deterministic seeded k-majority quantizer — Hamming
// assignment, per-bit majority-vote centroid update — partitions the
// rows into nlists cells, each stored as a flat row-major block (rows
// and owning view per slot) so the scan runs the exact Hamming kernel
// over contiguous memory. The quantizer adapts to however the codes
// cluster, which keeps the probe sub-linear even on the low-entropy
// descriptor sets that defeat fixed substring hashing. Float rows
// (SIFT, SURF) are not quantized: the flat lane scan answers them
// exactly and faster. A query descriptor ranks the centroids and scans
// only the nprobe nearest lists; per-view best/second-best fold
// exactly like the flat scan over the rows encountered, and a view
// contributing fewer than two candidate rows is skipped (no
// second-neighbour denominator — the rule the flat scan applies to
// views with fewer than two rows). The probed fold only shortlists:
// every view with a non-zero approximate count is then re-scored
// exactly by the flat kernel over its full row block (verifyShortlist),
// which repairs the coarse scan's systematic undercounting (a second
// neighbour in an unprobed cell otherwise drops the count) — final
// counts are either the flat scan's number or zero. At NProbe >= nlists
// every row would be scanned, so the query delegates to the flat kernel
// outright and is bit-identical to it.
//
// The index is immutable once built and safe for concurrent queries;
// per-query scratch is pooled.
type IVFIndex struct {
	ix     *DescriptorIndex
	params IVFParams

	nlists int
	full   bool // NProbe >= nlists: exact delegation

	centroidWords []uint64 // nlists * wpr, packed

	// Per-list flat blocks: list l owns slots
	// listStarts[l]..listStarts[l+1] of the reordered storage.
	listStarts []int32
	listWords  []uint64 // slot * wpr
	listView   []int32  // owning view per slot

	scratch sync.Pool // *ivfScratch
}

// NewIVFIndex builds the coarse-quantized backend over a flat index of
// binary rows. It panics on parameters IndexSpec.Validate would reject
// and on a non-empty float index, which buildMatchIndex never passes.
func NewIVFIndex(ix *DescriptorIndex, p IVFParams) *IVFIndex {
	p = p.withDefaults()
	if err := (IndexSpec{Kind: IVFKind, IVF: p}).Validate(); err != nil {
		panic(err.Error())
	}
	iv := &IVFIndex{ix: ix, params: p}
	if ix.Len() == 0 {
		iv.nlists = 1
		iv.full = true
		return iv
	}
	if !ix.Binary {
		panic("pipeline: ivf quantizes binary rows only; float rows take the exact scan")
	}

	// Quantize only rows whose view can pass a ratio test (>= 2 rows);
	// the flat scan never counts the others either.
	rows := make([]int32, 0, ix.Len())
	for v := 0; v < ix.NumViews; v++ {
		start, end := ix.Starts[v], ix.Starts[v+1]
		if end-start < 2 {
			continue
		}
		for r := start; r < end; r++ {
			rows = append(rows, int32(r))
		}
	}
	n := len(rows)
	if n == 0 {
		iv.nlists = 1
		iv.full = true
		return iv
	}

	nlists := p.NLists
	if nlists <= 0 {
		nlists = int(2 * math.Sqrt(float64(n)))
	}
	if nlists > n {
		nlists = n
	}
	if nlists < 1 {
		nlists = 1
	}
	if nlists > 1024 {
		nlists = 1024
	}
	iv.nlists = nlists
	iv.full = p.NProbe >= nlists
	if iv.full {
		return iv
	}

	// One deterministic assignment pass over every quantized row: the
	// distance ranking is a pure per-row function (parallel-safe), ties
	// break to the lowest list index.
	assign := make([]int32, n)
	wpr := ix.WordsPerRow
	iv.centroidWords = iv.trainBinary(rows, nlists)
	parallel.ForEachChunk(0, n, func(_ int, sp parallel.Span) {
		for i := sp.Start; i < sp.End; i++ {
			r := int(rows[i])
			assign[i] = iv.nearestCentroidWords(ix.Words[r*wpr : (r+1)*wpr])
		}
	})

	iv.listStarts = make([]int32, nlists+1)
	for _, l := range assign {
		iv.listStarts[l+1]++
	}
	for l := 0; l < nlists; l++ {
		iv.listStarts[l+1] += iv.listStarts[l]
	}
	iv.listView = make([]int32, n)
	fill := make([]int32, nlists)
	rowView := make([]int32, ix.Len())
	for v := 0; v < ix.NumViews; v++ {
		for r := ix.Starts[v]; r < ix.Starts[v+1]; r++ {
			rowView[r] = int32(v)
		}
	}
	iv.listWords = make([]uint64, n*wpr)
	for i, r := range rows {
		l := assign[i]
		slot := iv.listStarts[l] + fill[l]
		fill[l]++
		copy(iv.listWords[int(slot)*wpr:(int(slot)+1)*wpr], ix.Words[int(r)*wpr:(int(r)+1)*wpr])
		iv.listView[slot] = rowView[r]
	}
	return iv
}

// trainBinary runs the seeded, sampled k-majority iterations over
// packed binary rows and returns the centroid words: Hamming
// assignment, per-bit majority-vote centroid update (a bit is set when
// at least half the members set it — the component-wise median, which
// minimises the summed Hamming distance to the members). Every step is
// deterministic: sample and init from ivfSeed, assignment ties to the
// lowest index, and a memberless cluster keeps its previous centroid
// (identical rows collapse into one live list, which the probe handles
// like any other).
func (iv *IVFIndex) trainBinary(rows []int32, nlists int) []uint64 {
	ix := iv.ix
	wpr := ix.WordsPerRow
	r := rng.New(ivfSeed)
	sample := rows
	if len(rows) > ivfMaxTrain {
		perm := r.Perm(len(rows))
		sample = make([]int32, ivfMaxTrain)
		for i := range sample {
			sample[i] = rows[perm[i]]
		}
	}
	n := len(sample)

	centroids := make([]uint64, nlists*wpr)
	init := r.Perm(n)
	for c := 0; c < nlists; c++ {
		row := int(sample[init[c%n]])
		copy(centroids[c*wpr:(c+1)*wpr], ix.Words[row*wpr:(row+1)*wpr])
	}
	iv.centroidWords = centroids

	rowBits := wpr * 64
	assign := make([]int32, n)
	ones := make([]int32, nlists*rowBits)
	members := make([]int32, nlists)
	for it := 0; it < ivfIters; it++ {
		parallel.ForEachChunk(0, n, func(_ int, sp parallel.Span) {
			for i := sp.Start; i < sp.End; i++ {
				row := int(sample[i])
				assign[i] = iv.nearestCentroidWords(ix.Words[row*wpr : (row+1)*wpr])
			}
		})
		clear(ones)
		clear(members)
		for i, l := range assign {
			row := int(sample[i])
			src := ix.Words[row*wpr : (row+1)*wpr]
			base := int(l) * rowBits
			for w, word := range src {
				for ; word != 0; word &= word - 1 {
					ones[base+w*64+mbits.TrailingZeros64(word)]++
				}
			}
			members[l]++
		}
		for l := 0; l < nlists; l++ {
			if members[l] == 0 {
				continue
			}
			half := members[l]
			base := l * rowBits
			for w := 0; w < wpr; w++ {
				var word uint64
				for b := 0; b < 64; b++ {
					if 2*ones[base+w*64+b] >= half {
						word |= 1 << uint(b)
					}
				}
				centroids[l*wpr+w] = word
			}
		}
	}
	return centroids
}

// nearestCentroidWords returns the index of the Hamming-closest binary
// centroid (lowest index on ties).
func (iv *IVFIndex) nearestCentroidWords(row []uint64) int32 {
	wpr := iv.ix.WordsPerRow
	best, bestD := int32(0), math.MaxInt
	c := iv.centroidWords
	for l := 0; l < iv.nlists; l++ {
		if d := features.HammingWords(row, c[l*wpr:(l+1)*wpr]); d < bestD {
			bestD, best = d, int32(l)
		}
	}
	return best
}

// Flat implements MatchIndex.
func (iv *IVFIndex) Flat() *DescriptorIndex { return iv.ix }

// IndexKind implements MatchIndex.
func (iv *IVFIndex) IndexKind() IndexKind { return IVFKind }

// ivfScratch is one query's probe state, pooled across queries.
type ivfScratch struct {
	epoch    int32
	viewMark []int32
	s1, s2   []float32
	touched  []int32
	cd       []float32 // centroid distances
	ord      []int32   // partial-selection order
}

func (iv *IVFIndex) getScratch() *ivfScratch {
	if v := iv.scratch.Get(); v != nil {
		return v.(*ivfScratch)
	}
	return &ivfScratch{
		viewMark: make([]int32, iv.ix.NumViews),
		s1:       make([]float32, iv.ix.NumViews),
		s2:       make([]float32, iv.ix.NumViews),
		touched:  make([]int32, 0, 64),
		cd:       make([]float32, iv.nlists),
		ord:      make([]int32, iv.nlists),
	}
}

func (sc *ivfScratch) next() {
	if sc.epoch == math.MaxInt32 {
		clear(sc.viewMark)
		sc.epoch = 0
	}
	sc.epoch++
	sc.touched = sc.touched[:0]
}

// GoodMatchCounts implements MatchIndex: the full-range, untraced
// Scan under context.Background(), which never expires, so the scan
// cannot fail.
//
//snmatch:noalloc
func (iv *IVFIndex) GoodMatchCounts(query *features.Set, ratio float64, counts []int32) {
	_ = iv.Scan(context.Background(), query, ratio, counts, 0, iv.ix.NumViews, nil)
}

// Scan implements MatchIndex: the flat scan's contract over the nprobe
// nearest lists. Views outside [v0, v1) are untouched, so sharded
// fan-out composes exactly as with the flat index. The coarse probe and
// list scans book as match time, the exact shortlist re-scoring as
// verify time; the shortlist/probe histograms record just before
// verification.
//
//snmatch:noalloc
func (iv *IVFIndex) Scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error {
	if iv.full {
		return iv.ix.Scan(ctx, query, ratio, counts, v0, v1, tr)
	}
	clear(counts[v0:v1])
	if query.Len() == 0 || iv.ix.Len() == 0 {
		return nil
	}
	if !query.IsBinary() {
		panic("match: mixed descriptor representations")
	}
	qp := query.Pack().Packed
	if qp.WordsPerRow != iv.ix.WordsPerRow {
		panic("pipeline: query descriptor width does not match index")
	}
	pm := obsMetrics()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	if err := iv.scanBinary(ctx, qp, ratio, counts, v0, v1); err != nil {
		return err
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageMatch, now.Sub(start))
		start = now
	}
	pm.recordScan(counts, v0, v1, qp.N*iv.params.NProbe)
	err := verifyShortlist(ctx, iv.ix, query, ratio, counts, v0, v1)
	if tr != nil {
		tr.Add(obs.StageVerify, time.Since(start))
	}
	return err
}

// scanBinary is the approximate probe over packed binary rows: Hamming
// centroid ranking against the k-majority centroids, exact
// HammingWords fold over the nprobe nearest lists. The fold mirrors
// the flat binaryCounts semantics (raw Hamming distances through the
// ratio test); the single-candidate horizon rule compares raw
// distances too, since Hamming is already the metric.
func (iv *IVFIndex) scanBinary(ctx context.Context, qp *features.Packed, ratio float64, counts []int32, v0, v1 int) error {
	wpr := iv.ix.WordsPerRow
	nprobe := iv.params.NProbe
	sc := iv.getScratch()
	defer iv.scratch.Put(sc)
	for qi := 0; qi < qp.N; qi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := qp.WordRow(qi)
		sc.next()

		c := iv.centroidWords
		for l := 0; l < iv.nlists; l++ {
			sc.cd[l] = float32(features.HammingWords(q, c[l*wpr:(l+1)*wpr]))
		}
		for i := range sc.ord {
			sc.ord[i] = int32(i)
		}
		// One extra selection slot past nprobe: ord[nprobe] must be the
		// nearest *unprobed* centroid — the probe horizon of the
		// single-candidate shortlist rule below.
		for k := 0; k <= nprobe; k++ {
			min := k
			for i := k + 1; i < iv.nlists; i++ {
				a, b := sc.ord[i], sc.ord[min]
				if sc.cd[a] < sc.cd[b] || (sc.cd[a] == sc.cd[b] && a < b) {
					min = i
				}
			}
			sc.ord[k], sc.ord[min] = sc.ord[min], sc.ord[k]
		}

		for k := 0; k < nprobe; k++ {
			lst := sc.ord[k]
			for slot := iv.listStarts[lst]; slot < iv.listStarts[lst+1]; slot++ {
				v := iv.listView[slot]
				if int(v) < v0 || int(v) >= v1 {
					continue
				}
				d := float32(features.HammingWords(q, iv.listWords[int(slot)*wpr:(int(slot)+1)*wpr]))
				if sc.viewMark[v] != sc.epoch {
					sc.viewMark[v] = sc.epoch
					sc.s1[v], sc.s2[v] = d, inf32
					sc.touched = append(sc.touched, v) //lint:allow noalloc touched grows into pooled scratch capped at NumViews; capacity amortizes to zero growth at steady state
					continue
				}
				if d < sc.s1[v] {
					sc.s2[v], sc.s1[v] = sc.s1[v], d
				} else if d < sc.s2[v] {
					sc.s2[v] = d
				}
			}
		}
		horizon := float64(sc.cd[sc.ord[nprobe]])
		for _, v := range sc.touched {
			s1, s2 := sc.s1[v], sc.s2[v]
			if s2 < inf32 {
				if float64(s1) < ratio*float64(s2) {
					counts[v]++
				}
			} else if float64(s1) < ratio*horizon*ivfHorizonScale {
				counts[v]++
			}
		}
	}
	return nil
}
