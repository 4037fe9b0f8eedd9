package pipeline

import (
	"context"
	"math"
	"runtime"
	"testing"

	"snmatch/internal/arena"
	"snmatch/internal/dataset"
	"snmatch/internal/features"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/moments"
	"snmatch/internal/obs"
	"snmatch/internal/rng"
)

// noiseImage renders a deterministic noise RGB image — a worst-case
// keypoint workload that exercises every extractor code path.
func noiseImage(r *rng.RNG, w, h int) *imaging.Image {
	img := imaging.NewImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = byte(r.Intn(256))
	}
	return img
}

// setsBitIdentical asserts two descriptor sets match bit for bit:
// keypoints, representation, widths and the descriptor matrix.
func setsBitIdentical(t *testing.T, label string, fresh, pooled *features.Set) {
	t.Helper()
	if fresh.Len() != pooled.Len() {
		t.Fatalf("%s: %d keypoints, fresh has %d", label, pooled.Len(), fresh.Len())
	}
	if fresh.Binary != pooled.Binary {
		t.Fatalf("%s: representation mismatch", label)
	}
	for i := range fresh.Keypoints {
		if fresh.Keypoints[i] != pooled.Keypoints[i] {
			t.Fatalf("%s: keypoint %d = %+v, fresh %+v", label, i, pooled.Keypoints[i], fresh.Keypoints[i])
		}
	}
	if fresh.Dim != pooled.Dim || fresh.WordsPerRow != pooled.WordsPerRow || fresh.RowBytes != pooled.RowBytes ||
		len(fresh.Floats) != len(pooled.Floats) || len(fresh.Words) != len(pooled.Words) {
		t.Fatalf("%s: matrix shape differs: %+v vs %+v", label, pooled, fresh)
	}
	for i := range fresh.Floats {
		if math.Float32bits(fresh.Floats[i]) != math.Float32bits(pooled.Floats[i]) {
			t.Fatalf("%s: float %d differs", label, i)
		}
	}
	for i := range fresh.Words {
		if fresh.Words[i] != pooled.Words[i] {
			t.Fatalf("%s: word %d differs", label, i)
		}
	}
}

// TestExtractCtxEquivalence reuses one extraction context across a
// randomized stream of images — rendered views and raw noise, in
// several (odd) sizes so recycled buffers change shape between queries
// — and requires the pooled output to equal fresh extraction bit for
// bit at every step, for every descriptor family.
func TestExtractCtxEquivalence(t *testing.T) {
	r := rng.New(41)
	var imgs []*imaging.Image
	for _, sm := range sns2.Samples[:6] {
		imgs = append(imgs, sm.Image)
	}
	for _, wh := range [][2]int{{48, 48}, {57, 63}, {40, 44}, {64, 48}} {
		imgs = append(imgs, noiseImage(r, wh[0], wh[1]))
	}
	params := DefaultDescriptorParams()
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		ctx := NewExtractCtx()
		for round := 0; round < 2; round++ { // round 2 runs fully warm
			for i, img := range imgs {
				fresh := ExtractDescriptors(img, kind, params)
				pooled := ExtractDescriptorsCtx(img, kind, params, ctx)
				setsBitIdentical(t, kind.String()+" image "+itoa(i), fresh, pooled)
				ctx.Reset()
			}
		}
	}
}

// TestExtractCtxNilIsFresh pins the nil-context fallback to the plain
// extraction path.
func TestExtractCtxNilIsFresh(t *testing.T) {
	img := sns2.Samples[0].Image
	params := DefaultDescriptorParams()
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		setsBitIdentical(t, kind.String(),
			ExtractDescriptors(img, kind, params),
			ExtractDescriptorsCtx(img, kind, params, nil))
	}
}

// TestQueryPathAllocs is the zero-allocation gate on the warm query
// path (the CI alloc-gate step runs exactly this test): once an
// extraction context has served one query of the steady-state shape,
// extracting each descriptor family — grayscale conversion, detector
// sweep, descriptor computation, packing — performs zero heap
// allocations, and so does the flat-index classification that follows.
func TestQueryPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	img := sns2.Samples[0].Image
	params := DefaultDescriptorParams()
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			ctx := NewExtractCtx()
			for i := 0; i < 2; i++ { // grow spines and arena to steady state
				ExtractDescriptorsCtx(img, kind, params, ctx)
				ctx.Reset()
			}
			if n := testing.AllocsPerRun(20, func() {
				ExtractDescriptorsCtx(img, kind, params, ctx)
				ctx.Reset()
			}); n != 0 {
				t.Errorf("warm %s extraction allocates %.1f times per query, want 0", kind, n)
			}
		})
	}

	// The full single-query serve path — pooled extraction plus the
	// flat-index scan and argmax — is allocation-free too once the
	// pipeline's context pool is warm. The obs=on run repeats it with
	// live instrumentation (stage trace, counters, histograms): the
	// record path is pure atomic arithmetic, so the gate holds with
	// metrics enabled — the invariant the CI obs alloc-gate step pins.
	// The one-shard rows drive the serving path on a 1-shard
	// ShardedGallery (snserve -shards 1): its single-span Scan runs
	// inline, without the fan-out closure. Each row classifies with ORB
	// (the binary scan) and SIFT (the lane-blocked float scan with its
	// pooled transposition scratch).
	prepared := func(kind DescriptorKind) *Descriptor {
		p := NewDescriptor(kind, 0.5)
		p.Prepare(gallery1, 1)
		return p
	}
	for _, on := range []bool{false, true} {
		name := "classify/obs=off"
		if on {
			name = "classify/obs=on"
		}
		setObs := func() {
			if on {
				EnableObs(obs.NewRegistry())
			} else {
				DisableObs()
			}
		}
		t.Run(name, func(t *testing.T) {
			setObs()
			defer DisableObs()
			for _, kind := range []DescriptorKind{ORB, SIFT} {
				p := prepared(kind)
				for i := 0; i < 3; i++ {
					p.Classify(img, gallery1)
				}
				if n := testing.AllocsPerRun(20, func() {
					p.Classify(img, gallery1)
				}); n != 0 {
					t.Errorf("warm %s Classify allocates %.1f times per query, want 0", kind, n)
				}
			}
		})
		t.Run(name+"/one-shard", func(t *testing.T) {
			setObs()
			defer DisableObs()
			sg := NewShardedGallery(gallery1, 1)
			ctx := context.Background()
			for _, kind := range []DescriptorKind{ORB, SIFT} {
				p := prepared(kind)
				for i := 0; i < 3; i++ {
					sg.ClassifyStatsCtx(ctx, p, img)
				}
				if n := testing.AllocsPerRun(20, func() {
					sg.ClassifyStatsCtx(ctx, p, img)
				}); n != 0 {
					t.Errorf("warm 1-shard %s ClassifyStatsCtx allocates %.1f times per query, want 0", kind, n)
				}
			}
		})
	}

	// The contour/histogram pipelines run on the shared prep-context
	// pool: preprocessing planes, border tracing, the crop, the query
	// histogram and the hybrid score vector are all pooled, so the warm
	// shape-only, colour-only and hybrid (WeightedSum) classify paths
	// are allocation-free end to end — the detector's per-crop loop
	// depends on this.
	for _, tc := range []struct {
		name string
		p    Pipeline
	}{
		{"shape", ShapeOnly{Method: moments.MatchI3}},
		{"color", ColorOnly{Metric: histogram.Hellinger}},
		{"hybrid", DefaultHybrid(WeightedSum)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 3; i++ { // grow the pooled context to steady state
				tc.p.Classify(img, gallery1)
			}
			if n := testing.AllocsPerRun(20, func() {
				tc.p.Classify(img, gallery1)
			}); n != 0 {
				t.Errorf("warm %s Classify allocates %.1f times per query, want 0", tc.name, n)
			}
		})
	}
}

// TestOversizedContextIsDropped pins the free list's hygiene rules: a
// context whose arena footprint exceeds maxPooledCtxBytes is not
// re-pooled, so one huge query cannot pin its high-water working set in
// the pool; a small context put back is the next one handed out; and
// at most GOMAXPROCS contexts stay parked.
func TestOversizedContextIsDropped(t *testing.T) {
	p := NewDescriptor(ORB, 0.5)
	big := NewExtractCtx()
	for big.arena.Footprint() <= maxPooledCtxBytes {
		_ = arena.Slice[byte](big.arena, 1<<20) // distinct live 1 MiB loans
	}
	if big.arena.Footprint() <= maxPooledCtxBytes {
		t.Fatal("fixture failed to inflate the context")
	}
	for i := 0; i < 3; i++ {
		p.putCtx(big)
		if got := p.getCtx(); got == big {
			t.Fatal("oversized context was returned to the pool")
		}
	}

	small := NewExtractCtx()
	p.putCtx(small)
	if got := p.getCtx(); got != small {
		t.Fatal("a small context put back was not the next one returned")
	}

	n := runtime.GOMAXPROCS(0)
	put := map[*ExtractCtx]bool{}
	for i := 0; i <= n; i++ {
		c := NewExtractCtx()
		put[c] = true
		p.putCtx(c)
	}
	back := 0
	for i := 0; i <= n; i++ {
		if put[p.getCtx()] {
			back++
		}
	}
	if back != n {
		t.Fatalf("%d of %d contexts put back came back, want GOMAXPROCS = %d", back, n+1, n)
	}
}

// TestDescriptorClassifyPooledMatchesPerView cross-checks the pooled
// Classify path (context checkout, arena-backed query set, flat-index
// scan) against the legacy per-view brute-force reference on real
// queries.
func TestDescriptorClassifyPooledMatchesPerView(t *testing.T) {
	small := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:12]})
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		p := NewDescriptor(kind, 0.5)
		for _, sm := range sns2.Samples[:6] {
			got := p.Classify(sm.Image, small)
			want := p.classifyPerView(sm.Image, small)
			if got != want {
				t.Fatalf("%s: pooled Classify = %+v, per-view reference %+v", kind, got, want)
			}
		}
	}
}

// TestShardedClassifyStatsMatchesFlat pins the sharded serving path —
// pooled extraction fanned across shards — to the flat pipeline at
// several shard counts, and checks the extraction timing is populated.
func TestShardedClassifyStatsMatchesFlat(t *testing.T) {
	p := NewDescriptor(SIFT, 0.5)
	p.Prepare(gallery1, 0)
	for _, shards := range []int{1, 2, 7} {
		sg := NewShardedGallery(gallery1, shards)
		for _, sm := range sns2.Samples[:4] {
			want := p.Classify(sm.Image, gallery1)
			got, stats, _ := sg.ClassifyStatsCtx(context.Background(), p, sm.Image)
			if got != want {
				t.Fatalf("shards=%d: %+v, flat %+v", shards, got, want)
			}
			if stats.Extract <= 0 {
				t.Fatalf("shards=%d: extraction timing not populated", shards)
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
