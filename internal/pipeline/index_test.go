package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/features"
	"snmatch/internal/features/match"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

// classifyPerView is the legacy brute-force path — an independent 2-NN
// match per gallery view — retained as the reference implementation the
// flat index is verified against in the equivalence tests.
func (p *Descriptor) classifyPerView(img *imaging.Image, g *Gallery) Prediction {
	q := ExtractDescriptors(img, p.Kind, p.Params)
	best := Prediction{Index: -1, Score: -1}
	for i := range g.Views {
		score := float64(match.GoodMatchCount(q, g.descriptorOf(i, p.Kind, p.Params), p.Ratio))
		if score > best.Score {
			best = Prediction{Class: g.ClassOf(i), Index: i, Score: score}
		}
	}
	return best
}

// floatSet lays float rows out as a set's matrix.
func floatSet(rows [][]float32) *features.Set {
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	s := features.NewSet(nil, false, len(rows), dim)
	for i, d := range rows {
		copy(s.FloatRow(i), d)
		s.Keypoints = append(s.Keypoints, features.Keypoint{})
	}
	return s
}

// binarySet packs byte rows little-endian into a set's word rows, the
// layout BRIEF writes.
func binarySet(rows [][]byte, bytes int) *features.Set {
	s := features.NewSet(nil, true, len(rows), bytes)
	for i, d := range rows {
		row := s.WordRow(i)
		for b, v := range d {
			row[b/8] |= uint64(v) << (8 * (b % 8))
		}
		s.Keypoints = append(s.Keypoints, features.Keypoint{})
	}
	return s
}

// randFloatSet draws integer-valued components so distances are exact
// and small vocabularies produce genuine ties.
func randFloatSet(r *rng.RNG, n, dim, vocab int) *features.Set {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(r.Intn(vocab))
		}
	}
	return floatSet(rows)
}

func randBinaryRows(r *rng.RNG, n, bytes int) [][]byte {
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, bytes)
		for j := range rows[i] {
			rows[i][j] = byte(r.Intn(256))
		}
	}
	return rows
}

func randBinarySet(r *rng.RNG, n, bytes int) *features.Set {
	return binarySet(randBinaryRows(r, n, bytes), bytes)
}

// TestDescriptorIndexMatchesPerViewCounts is the index's exactness
// contract: one flat scan must reproduce the per-view brute-force
// GoodMatchCount for every view — including empty views, single
// descriptor views (below the ratio test's two-neighbour minimum), tie
// heavy small vocabularies, and partial lane blocks in the float scan.
func TestDescriptorIndexMatchesPerViewCounts(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 25; trial++ {
		nViews := 1 + r.Intn(8)
		binary := trial%2 == 1
		vocab := 2 + r.Intn(9) // small vocabularies force distance ties
		sets := make([]*features.Set, nViews)
		for v := range sets {
			n := r.Intn(7) // includes empty and single-descriptor views
			if binary {
				sets[v] = randBinarySet(r, n, 4)
			} else {
				sets[v] = randFloatSet(r, n, 6, vocab)
			}
		}
		var query *features.Set
		if binary {
			query = randBinarySet(r, r.Intn(8), 4)
		} else {
			query = randFloatSet(r, r.Intn(8), 6, vocab)
		}
		ix := NewDescriptorIndex(sets)
		counts := make([]int32, nViews)
		for _, ratio := range []float64{0.5, 0.75, 1.0} {
			ix.GoodMatchCounts(query, ratio, counts)
			for v, s := range sets {
				want := int32(match.GoodMatchCount(query, s, ratio))
				if counts[v] != want {
					t.Fatalf("trial %d (binary=%v) view %d ratio %v: %d != %d",
						trial, binary, v, ratio, counts[v], want)
				}
			}
		}
	}
}

// TestDescriptorIndexExactAtLargeNorms stresses the flat float scan
// where float32 accumulation is least forgiving: high dimension and
// large, clustered magnitudes (norms in the thousands, partially
// non-representable squared sums), mixed with near-origin rows. Every
// view also holds scaled copies c·q of query rows, near-ties at
// distance |c-1|·|q| that decide ratio tests. Across a sweep of ratios
// the flat scan's counts must equal the per-view reference exactly.
func TestDescriptorIndexExactAtLargeNorms(t *testing.T) {
	r := rng.New(131)
	mixedRows := func(n int) [][]float32 {
		rows := make([][]float32, n)
		for i := range rows {
			d := make([]float32, 128)
			base := float32(0)
			if r.Intn(2) == 1 {
				base = 500
			}
			for j := range d {
				d[j] = base + float32(r.Intn(16))
			}
			rows[i] = d
		}
		return rows
	}
	for trial := 0; trial < 10; trial++ {
		views := make([][][]float32, 4)
		for v := range views {
			views[v] = mixedRows(2 + r.Intn(6))
		}
		qrows := mixedRows(6)
		sets := make([]*features.Set, len(views))
		for v, rows := range views {
			for i := 0; i < 6; i++ {
				q := qrows[r.Intn(len(qrows))]
				c := float32(1 + r.Range(-1, 1)*1e-3)
				d := make([]float32, len(q))
				for j, x := range q {
					d[j] = c * x
				}
				rows = append(rows, d)
			}
			sets[v] = floatSet(rows)
		}
		query := floatSet(qrows)
		ix := NewDescriptorIndex(sets)
		counts := make([]int32, len(sets))
		for ratio := 0.05; ratio <= 1; ratio += 0.05 {
			ix.GoodMatchCounts(query, ratio, counts)
			for v, s := range sets {
				if want := int32(match.GoodMatchCount(query, s, ratio)); counts[v] != want {
					t.Fatalf("trial %d view %d ratio %.2f: flat %d != reference %d",
						trial, v, ratio, counts[v], want)
				}
			}
		}
	}
}

func TestDescriptorIndexEmptyCases(t *testing.T) {
	r := rng.New(3)
	// Empty gallery.
	ix := NewDescriptorIndex(nil)
	ix.GoodMatchCounts(randFloatSet(r, 3, 6, 5), 0.5, nil)
	// All-empty views.
	ix = NewDescriptorIndex([]*features.Set{{}, {}})
	counts := make([]int32, 2)
	ix.GoodMatchCounts(randFloatSet(r, 3, 6, 5), 0.5, counts)
	if counts[0] != 0 || counts[1] != 0 {
		t.Errorf("empty views counted: %v", counts)
	}
	// Empty query.
	ix = NewDescriptorIndex([]*features.Set{randFloatSet(r, 4, 6, 5)})
	counts = counts[:1]
	counts[0] = 9
	ix.GoodMatchCounts(&features.Set{}, 0.5, counts)
	if counts[0] != 0 {
		t.Errorf("empty query counted: %v", counts)
	}
	// Zero-width binary rows: every distance is 0, so nothing passes.
	zero := randBinarySet(r, 3, 0)
	ix = NewDescriptorIndex([]*features.Set{zero})
	counts[0] = 9
	ix.GoodMatchCounts(randBinarySet(r, 5, 0), 1.0, counts)
	if counts[0] != 0 {
		t.Errorf("zero-width binary rows counted: %v", counts)
	}
}

func TestDescriptorIndexCountsAllocationFree(t *testing.T) {
	r := rng.New(19)
	sets := make([]*features.Set, 6)
	for v := range sets {
		sets[v] = randFloatSet(r, 12, 16, 7)
	}
	ix := NewDescriptorIndex(sets)
	query := randFloatSet(r, 10, 16, 7)
	counts := make([]int32, len(sets))
	if n := testing.AllocsPerRun(50, func() { ix.GoodMatchCounts(query, 0.5, counts) }); n != 0 {
		t.Errorf("float GoodMatchCounts allocates %v per run", n)
	}
	bsets := make([]*features.Set, 6)
	for v := range bsets {
		bsets[v] = randBinarySet(r, 12, 4)
	}
	bix := NewDescriptorIndex(bsets)
	bquery := randBinarySet(r, 10, 4)
	if n := testing.AllocsPerRun(50, func() { bix.GoodMatchCounts(bquery, 0.5, counts) }); n != 0 {
		t.Errorf("binary GoodMatchCounts allocates %v per run", n)
	}
}

// TestClassifyFlatMatchesPerView pins the flat-index Classify to the
// legacy per-view brute-force path for all three descriptor families,
// then pins the binary scan's counts to match.GoodMatchCount at ORB's
// 32-byte width, the one the assembly kernel runs: rows drawn from a
// vocabulary of 2 to 10 rows, so duplicates and equal distances occur,
// 0 to 9 query rows, which leave partial 4-lane blocks, and views of
// 0, 1 and 2 rows among larger ones.
func TestClassifyFlatMatchesPerView(t *testing.T) {
	small := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:12]})
	queries := sns2.Samples[:6]
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		p := NewDescriptor(kind, 0.5)
		for _, q := range queries {
			want := p.classifyPerView(q.Image, small)
			got := p.Classify(q.Image, small)
			if want != got {
				t.Errorf("%s: flat %+v != per-view %+v", kind, got, want)
			}
		}
	}

	r := rng.New(29)
	for trial := 0; trial < 40; trial++ {
		vocab := randBinaryRows(r, 2+r.Intn(9), 32)
		draw := func(n int) *features.Set {
			rows := make([][]byte, n)
			for i := range rows {
				rows[i] = vocab[r.Intn(len(vocab))]
			}
			return binarySet(rows, 32)
		}
		sets := []*features.Set{draw(0), draw(1), draw(2)}
		for v := r.Intn(6); v > 0; v-- {
			sets = append(sets, draw(r.Intn(12)))
		}
		query := draw(trial % 10)
		ix := NewDescriptorIndex(sets)
		counts := make([]int32, len(sets))
		for _, ratio := range []float64{0.5, 0.75, 1.0} {
			ix.GoodMatchCounts(query, ratio, counts)
			for v, s := range sets {
				if want := int32(match.GoodMatchCount(query, s, ratio)); counts[v] != want {
					t.Fatalf("trial %d view %d ratio %v: flat %d != reference %d", trial, v, ratio, counts[v], want)
				}
			}
		}
	}
}

// TestRunParallelDescriptorKindsMatchSerial sweeps the determinism
// contract at workers 1/4/16 for every descriptor family: the pooled
// flat-index sweep must equal the serial sweep exactly.
func TestRunParallelDescriptorKindsMatchSerial(t *testing.T) {
	queries := &dataset.Set{Name: "q", Samples: sns2.Samples[:8]}
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		small := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:10]})
		p := NewDescriptor(kind, 0.5)
		serialPred, _ := Run(p, queries, small)
		for _, w := range poolSizes {
			pred, _ := RunParallel(NewDescriptor(kind, 0.5), queries, small, w)
			classesEqual(t, kind.String(), serialPred, pred)
		}
	}
}

// TestDescriptorScratchPoolUnderConcurrency hammers one shared index's
// sync.Pool scratch from many goroutines (run with -race in CI): all
// workers must see consistent counts.
func TestDescriptorScratchPoolUnderConcurrency(t *testing.T) {
	small := NewGallery(&dataset.Set{Name: "shared", Samples: sns1.Samples[:10]})
	queries := sns2.Samples[:6]
	// SIFT's float index runs the lane-blocked scan, whose
	// transposed-query scratch is pooled on the index too.
	for _, kind := range []DescriptorKind{ORB, SIFT} {
		p := NewDescriptor(kind, 0.75)
		p.Prepare(small, 4)
		want := make([]Prediction, len(queries))
		for i, q := range queries {
			want[i] = p.Classify(q.Image, small)
		}
		var wg sync.WaitGroup
		for worker := 0; worker < 12; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range queries {
					if got := p.Classify(q.Image, small); got != want[i] {
						t.Errorf("concurrent %s classify %d: %+v != %+v", kind, i, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// expiringCtx is a context whose Err turns non-nil after `live` calls:
// a deadline that expires partway through a scan.
type expiringCtx struct {
	context.Context
	live, calls int
}

func (c *expiringCtx) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.DeadlineExceeded
	}
	return nil
}

// TestScanHonoursDeadlineMidQuery pins the in-scan checkpoints: both
// flat kernels check ctx once per view, so a deadline that expires
// partway through a scan stops it with that error before its last
// checkpoint.
func TestScanHonoursDeadlineMidQuery(t *testing.T) {
	r := rng.New(5)
	floatSets := make([]*features.Set, 6)
	binSets := make([]*features.Set, 6)
	for v := range floatSets {
		floatSets[v] = randFloatSet(r, 8, 6, 12)
		binSets[v] = randBinarySet(r, 8, 32)
	}
	const nq = 8
	for _, tc := range []struct {
		name  string
		mi    MatchIndex
		query *features.Set
	}{
		{"flat/float", NewDescriptorIndex(floatSets), randFloatSet(r, nq, 6, 12)},
		{"flat/binary", NewDescriptorIndex(binSets), randBinarySet(r, nq, 32)},
	} {
		const views = 6 // one checkpoint per view in an uninterrupted scan
		ctx := &expiringCtx{Context: context.Background(), live: 3}
		counts := make([]int32, views)
		err := tc.mi.Scan(ctx, tc.query, 0.8, counts, 0, views, nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: Scan returned %v, want the context's error", tc.name, err)
		}
		if ctx.calls != ctx.live+1 {
			t.Fatalf("%s: %d ctx checks, want %d: one per view until the deadline", tc.name, ctx.calls, ctx.live+1)
		}
		ctx = &expiringCtx{Context: context.Background(), live: views}
		if err := tc.mi.Scan(ctx, tc.query, 0.8, counts, 0, views, nil); err != nil || ctx.calls != views {
			t.Fatalf("%s: uninterrupted scan returned %v after %d ctx checks, want nil after %d", tc.name, err, ctx.calls, views)
		}
	}
}

// TestMixedRepresentationQueryPanics pins the flat scan's error
// contract for a query of the other representation.
func TestMixedRepresentationQueryPanics(t *testing.T) {
	r := rng.New(23)
	for _, tc := range []struct {
		name  string
		ix    *DescriptorIndex
		query *features.Set
	}{
		{"binary-index/float-query", NewDescriptorIndex([]*features.Set{randBinarySet(r, 4, 32), randBinarySet(r, 4, 32)}), randFloatSet(r, 3, 6, 8)},
		{"float-index/binary-query", NewDescriptorIndex([]*features.Set{randFloatSet(r, 4, 6, 8), randFloatSet(r, 4, 6, 8)}), randBinarySet(r, 3, 32)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mixed representation did not panic", tc.name)
				}
			}()
			tc.ix.GoodMatchCounts(tc.query, 0.8, make([]int32, 2))
		}()
	}
}

// TestLargeGalleryShape pins the scaled-taxonomy helper: deterministic,
// class-distinct, and sized classes x viewsPerClass.
func TestLargeGalleryShape(t *testing.T) {
	a := dataset.BuildLarge(13, 4, 5)
	b := dataset.BuildLarge(13, 4, 5)
	if a.Len() != 13*4 || b.Len() != a.Len() {
		t.Fatalf("size %d != %d", a.Len(), 13*4)
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.Class != sb.Class || sa.Model != sb.Model || sa.View != sb.View {
			t.Fatalf("sample %d metadata not deterministic", i)
		}
		ia, ib := sa.Image, sb.Image
		if ia.W != ib.W || ia.H != ib.H {
			t.Fatalf("sample %d image shape not deterministic", i)
		}
		for j := range ia.Pix {
			if ia.Pix[j] != ib.Pix[j] {
				t.Fatalf("sample %d pixels not deterministic", i)
			}
		}
	}
	// Classes beyond the Table 1 ten stay representable and countable.
	if c := a.Samples[a.Len()-1].Class; int(c) != 12 {
		t.Fatalf("last class = %d", int(c))
	}
	_ = a.CountByClass() // must not panic on classes >= NumClasses
	if dataset.BuildLarge(0, 4, 5).Len() != 0 {
		t.Fatal("zero classes must yield an empty set")
	}
}
