package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/features"
	"snmatch/internal/parallel"
	"snmatch/internal/rng"
)

// fullProbeIVF probes more lists than any gallery builds: bit-identical
// delegation to the flat kernel.
var fullProbeIVF = IndexSpec{Kind: IVFKind, IVF: IVFParams{NProbe: 1 << 20}}

// randGallerySets draws a random multi-view gallery including empty and
// single-descriptor views (the flat scan's edge cases).
func randGallerySets(r *rng.RNG, nViews int, binary bool, vocab int) []*features.Set {
	sets := make([]*features.Set, nViews)
	for v := range sets {
		n := r.Intn(9)
		if binary {
			sets[v] = randBinarySet(r, n, 32)
		} else {
			sets[v] = randFloatSet(r, n, 6, vocab)
		}
	}
	return sets
}

// TestFullProbeBitIdenticalToFlat is the house determinism contract for
// the IVF spec over both row representations: a non-empty binary index
// gets the IVF backend and a float one the flat index itself, and at
// full-probe settings counts must equal the flat scan bit for bit —
// directly and through every sharded fan-out width.
func TestFullProbeBitIdenticalToFlat(t *testing.T) {
	r := rng.New(977)
	for trial := 0; trial < 12; trial++ {
		binary := trial%2 == 1
		vocab := 2 + r.Intn(9)
		sets := randGallerySets(r, 1+r.Intn(10), binary, vocab)
		ix := NewDescriptorIndex(sets)
		mi := buildMatchIndex(ix, fullProbeIVF)
		if _, isIVF := mi.(*IVFIndex); binary && ix.Len() > 0 && !isIVF {
			t.Fatalf("trial %d: full-probe spec %v built no IVF backend over binary rows", trial, fullProbeIVF)
		}
		if !binary && mi != MatchIndex(ix) {
			t.Fatalf("trial %d: spec %v over float rows must return the flat index", trial, fullProbeIVF)
		}
		var query *features.Set
		if binary {
			query = randBinarySet(r, 1+r.Intn(8), 32)
		} else {
			query = randFloatSet(r, 1+r.Intn(8), 6, vocab)
		}
		want := make([]int32, ix.NumViews)
		got := make([]int32, ix.NumViews)
		for _, ratio := range []float64{0.5, 0.8, 1.0} {
			ix.GoodMatchCounts(query, ratio, want)
			mi.GoodMatchCounts(query, ratio, got)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d (binary=%v) ratio %v view %d: %d != %d",
						trial, binary, ratio, v, got[v], want[v])
				}
			}
			for _, shards := range []int{1, 4, 16} {
				sx := NewShardedIndex(mi, shards)
				sx.GoodMatchCounts(query, ratio, got)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("trial %d (binary=%v) ratio %v shards=%d view %d: %d != %d",
							trial, binary, ratio, shards, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestIVFDegenerateClustersExact drives the non-delegating IVF scan
// where equality is provable: all rows identical means k-majority
// training collapses every row into the lowest-index cluster, so
// nprobe=1 scans the whole gallery and must reproduce the flat counts
// exactly. The remaining lists are empty — the degenerate-cluster path.
func TestIVFDegenerateClustersExact(t *testing.T) {
	r := rng.New(7)
	row := randBinarySet(r, 1, 32).Binary[0]
	sets := make([]*features.Set, 5)
	for v := range sets {
		s := &features.Set{}
		for i := 0; i < 4; i++ {
			s.Binary = append(s.Binary, append([]byte(nil), row...))
			s.Keypoints = append(s.Keypoints, features.Keypoint{})
		}
		sets[v] = s
	}
	ix := NewDescriptorIndex(sets)
	iv := NewIVFIndex(ix, IVFParams{NLists: 4, NProbe: 1})
	if iv.full {
		t.Fatal("nprobe=1 of nlists=4 must not delegate")
	}
	query := randBinarySet(r, 6, 32)
	want := make([]int32, ix.NumViews)
	got := make([]int32, ix.NumViews)
	ix.GoodMatchCounts(query, 0.9, want)
	iv.GoodMatchCounts(query, 0.9, got)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("view %d: %d != %d", v, got[v], want[v])
		}
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

// TestScanHonoursDeadlineMidQuery pins the in-scan checkpoints: the
// flat binary kernel and the IVF probe check ctx once per query
// descriptor and the flat float kernel once per view, so a deadline
// that expires partway through a scan stops it with that error before
// its last checkpoint.
func TestScanHonoursDeadlineMidQuery(t *testing.T) {
	r := rng.New(5)
	floatSets := make([]*features.Set, 6)
	binSets := make([]*features.Set, 6)
	for v := range floatSets {
		floatSets[v] = randFloatSet(r, 8, 6, 12)
		binSets[v] = randBinarySet(r, 8, 32)
	}
	floatIx, binIx := NewDescriptorIndex(floatSets), NewDescriptorIndex(binSets)
	const nq = 8
	for _, tc := range []struct {
		name  string
		mi    MatchIndex
		query *features.Set
		steps int // checkpoints in an uninterrupted scan
	}{
		{"flat/float", floatIx, randFloatSet(r, nq, 6, 12), len(floatSets)},
		{"flat/binary", binIx, randBinarySet(r, nq, 32), nq},
		{"ivf/binary", NewIVFIndex(binIx, IVFParams{NLists: 4, NProbe: 1}), randBinarySet(r, nq, 32), nq},
	} {
		if iv, ok := tc.mi.(*IVFIndex); ok && iv.full {
			t.Fatalf("%s: fixture delegates to the flat kernel", tc.name)
		}
		ctx := &expiringCtx{Context: context.Background(), live: 3}
		counts := make([]int32, len(floatSets))
		err := tc.mi.Scan(ctx, tc.query, 0.8, counts, 0, len(counts), nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: Scan returned %v, want the context's error", tc.name, err)
		}
		if ctx.calls >= tc.steps {
			t.Fatalf("%s: %d ctx checks for %d checkpoints; the scan ran to its last checkpoint", tc.name, ctx.calls, tc.steps)
		}
	}
}

// TestBuildMatchIndexFallbacks: an empty index must fall back to the
// flat scan rather than build a dead backend, and IVF refuses float
// rows outright.
func TestBuildMatchIndexFallbacks(t *testing.T) {
	r := rng.New(11)
	floatIx := NewDescriptorIndex([]*features.Set{randFloatSet(r, 4, 6, 8)})
	binIx := NewDescriptorIndex([]*features.Set{randBinarySet(r, 4, 32)})
	emptyIx := NewDescriptorIndex(nil)

	if _, ok := buildMatchIndex(binIx, IndexSpec{Kind: IVFKind}).(*IVFIndex); !ok {
		t.Fatal("IVF over binary rows must build the Hamming-quantized backend")
	}
	if mi := buildMatchIndex(emptyIx, IndexSpec{Kind: IVFKind}); mi != MatchIndex(emptyIx) {
		t.Fatal("empty gallery must fall back to the flat index")
	}
	if k := floatIx.IndexKind(); k != ExactKind {
		t.Fatalf("flat index kind = %v", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewIVFIndex over float rows did not panic")
		}
	}()
	NewIVFIndex(floatIx, IVFParams{})
}

// TestIndexSpecValidateAndParse covers the config surface: kind
// parsing, the String round-trip, and rejected parameter combinations.
func TestIndexSpecValidateAndParse(t *testing.T) {
	for _, k := range []IndexKind{ExactKind, IVFKind} {
		got, err := ParseIndexKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseIndexKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"annoy", "mih"} {
		if _, err := ParseIndexKind(name); err == nil {
			t.Fatalf("unknown kind %q must error", name)
		}
	}
	if k, err := ParseIndexKind(""); err != nil || k != ExactKind {
		t.Fatalf("empty kind = %v, %v", k, err)
	}

	bad := []IndexSpec{
		{Kind: IVFKind, IVF: IVFParams{NLists: -1}},
		{Kind: IVFKind, IVF: IVFParams{NProbe: -2}},
		{Kind: IndexKind(99)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d (%+v) must fail validation", i, s)
		}
	}
	good := []IndexSpec{
		{Kind: ExactKind},
		{Kind: IVFKind},
		{Kind: IVFKind, IVF: IVFParams{NLists: 32, NProbe: 64}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d (%+v): %v", i, s, err)
		}
	}
	if got := (IndexSpec{Kind: IVFKind}).String(); !strings.Contains(got, "ivf(") {
		t.Fatalf("ivf spec string = %q", got)
	}
}

// TestMixedRepresentationQueryPanics pins the IVF backend to the flat
// scan's error contract for mismatched queries.
func TestMixedRepresentationQueryPanics(t *testing.T) {
	r := rng.New(23)
	binIx := NewDescriptorIndex([]*features.Set{randBinarySet(r, 4, 32), randBinarySet(r, 4, 32)})
	ivf := NewIVFIndex(binIx, IVFParams{NLists: 2, NProbe: 1})
	if ivf.full {
		t.Fatal("fixture delegates to the flat kernel")
	}
	counts := make([]int32, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ivf-float-query: mixed representation did not panic")
		}
	}()
	ivf.GoodMatchCounts(randFloatSet(r, 3, 6, 8), 0.8, counts)
}

// TestGalleryIndexSpecPlumbing exercises the serving surface end to
// end: SetIndexSpec builds (and caches) the right backend per kind, a
// spec change drops the stale backend, and invalid specs are rejected.
func TestGalleryIndexSpecPlumbing(t *testing.T) {
	g := NewGalleryWorkers(dataset.BuildLarge(6, 3, 5), 0)
	params := DefaultDescriptorParams()
	g.PrepareDescriptorsWorkers(ORB, params, 0)
	g.PrepareDescriptorsWorkers(SIFT, params, 0)

	if spec := g.IndexSpec(); spec.Kind != ExactKind {
		t.Fatalf("default spec = %v", spec)
	}
	if k := g.MatchIndexFor(ORB, params).IndexKind(); k != ExactKind {
		t.Fatalf("default ORB backend = %v", k)
	}

	if err := g.SetIndexSpec(IndexSpec{Kind: IVFKind}); err != nil {
		t.Fatal(err)
	}
	// IVF quantizes binary ORB rows with the Hamming k-majority
	// quantizer; float SIFT rows keep the exact scan.
	if k := g.MatchIndexFor(ORB, params).IndexKind(); k != IVFKind {
		t.Fatalf("ORB backend under ivf spec = %v", k)
	}
	if k := g.MatchIndexFor(SIFT, params).IndexKind(); k != ExactKind {
		t.Fatalf("SIFT backend under ivf spec = %v", k)
	}
	mi := g.MatchIndexFor(ORB, params)
	if again := g.MatchIndexFor(ORB, params); again != mi {
		t.Fatal("backend not cached across calls")
	}

	if err := g.SetIndexSpec(IndexSpec{Kind: IVFKind, IVF: IVFParams{NProbe: 2}}); err != nil {
		t.Fatal(err)
	}
	if again := g.MatchIndexFor(ORB, params); again == mi {
		t.Fatal("spec change kept the stale backend")
	}

	if err := g.SetIndexSpec(IndexSpec{Kind: IVFKind, IVF: IVFParams{NProbe: -2}}); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
}

// TestANNFullProbePredictionsBitIdentical runs whole classifications —
// extraction, backend scan, argmax — through ShardedGallery at workers
// 1, 4 and 16 with full-probe specs, and requires the exact flat-scan
// prediction for every query. Run under -race this is also the
// concurrency soak for the backend caches and pooled scratch.
func TestANNFullProbePredictionsBitIdentical(t *testing.T) {
	g := NewGalleryWorkers(dataset.BuildLarge(8, 3, 3), 0)
	params := DefaultDescriptorParams()
	g.PrepareDescriptorsWorkers(ORB, params, 0)
	g.PrepareDescriptorsWorkers(SIFT, params, 0)
	queries := dataset.BuildLarge(8, 2, 77) // fresh seed: unseen renders

	type run struct {
		kind DescriptorKind
		spec IndexSpec
	}
	runs := []run{
		{ORB, fullProbeIVF},
		{SIFT, fullProbeIVF},
	}
	for _, rn := range runs {
		p := NewDescriptor(rn.kind, 0.5)
		if err := g.SetIndexSpec(IndexSpec{Kind: ExactKind}); err != nil {
			t.Fatal(err)
		}
		want := make([]Prediction, queries.Len())
		for i, q := range queries.Samples {
			want[i] = p.Classify(q.Image, g)
		}
		if err := g.SetIndexSpec(rn.spec); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 16} {
			sg := NewShardedGallery(g, workers)
			got := make([]Prediction, queries.Len())
			parallel.ForEach(workers, queries.Len(), func(i int) {
				got[i], _, _ = sg.ClassifyStatsCtx(context.Background(), p, queries.Samples[i].Image)
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v workers=%d query %d: %+v != %+v",
						rn.spec, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestANNDefaultSettingsRecallFloor is the recall@1 regression gate at
// the default approximate settings: over a scaled synthetic gallery the
// IVF predictions on ORB must agree with the exact scan on at least 95%
// of queries — the floor the CI smoke also enforces. Queries are unseen
// poses of the enrolled models (the serving regime: novel viewpoints of
// known objects), rendered at 128px so views carry enough keypoints for
// sharp match-score margins.
func TestANNDefaultSettingsRecallFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("gallery build is seconds-scale")
	}
	g := NewGalleryWorkers(dataset.BuildLargeAt(12, 6, 128, 9), 0)
	params := DefaultDescriptorParams()
	g.PrepareDescriptorsWorkers(ORB, params, 0)
	queries := dataset.BuildLargeQueriesAt(12, 3, 128, 9)

	const floor = 0.95
	spec := IndexSpec{Kind: IVFKind}
	p := NewDescriptor(ORB, 0.5)
	exact := make([]Prediction, queries.Len())
	for i, q := range queries.Samples {
		exact[i] = p.Classify(q.Image, g)
	}
	if err := g.SetIndexSpec(spec); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, q := range queries.Samples {
		if p.Classify(q.Image, g).Index == exact[i].Index {
			agree++
		}
	}
	recall := float64(agree) / float64(queries.Len())
	t.Logf("ORB %v: recall@1 %.3f (%d/%d)", spec, recall, agree, queries.Len())
	if recall < floor {
		t.Fatalf("ORB %v: recall@1 %.3f below the %.2f floor", spec, recall, floor)
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
