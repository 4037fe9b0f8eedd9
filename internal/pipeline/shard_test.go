package pipeline

import (
	"context"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/features"
	"snmatch/internal/rng"
)

// shardCounts is the shard sweep the acceptance criteria pin: the
// degenerate single shard, an even split, a prime count, and one beyond
// most view counts.
var shardCounts = []int{1, 2, 7, 16}

// TestShardSpansPartition checks the structural invariant: every shard
// split is a partition of [0, NumViews) into non-empty ascending ranges.
func TestShardSpansPartition(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 30; trial++ {
		nv := r.Intn(25)
		sets := make([]*features.Set, nv)
		for i := range sets {
			sets[i] = randFloatSet(r, r.Intn(9), 8, 5)
		}
		ix := NewDescriptorIndex(sets)
		for _, shards := range []int{1, 2, 3, 7, 16, 100} {
			sx := NewShardedIndex(ix, shards)
			spans := sx.Spans()
			if nv == 0 {
				if len(spans) != 0 {
					t.Fatalf("nv=0 shards=%d: got %d spans", shards, len(spans))
				}
				continue
			}
			pos := 0
			for _, sp := range spans {
				if sp.Start != pos || sp.End <= sp.Start {
					t.Fatalf("nv=%d shards=%d: bad span %+v at pos %d (spans %v)", nv, shards, sp, pos, spans)
				}
				pos = sp.End
			}
			if pos != nv {
				t.Fatalf("nv=%d shards=%d: spans cover [0,%d), want [0,%d)", nv, shards, pos, nv)
			}
			if len(spans) > shards {
				t.Fatalf("nv=%d: got %d spans for %d shards", nv, len(spans), shards)
			}
		}
	}
}

// TestShardedCountsEqualFlat verifies the core contract on randomized
// float and binary galleries: sharded per-view counts are bit-identical
// to the flat scan at every shard count, including galleries with empty
// and single-descriptor views (which the ratio test skips).
func TestShardedCountsEqualFlat(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		binary := trial%2 == 1
		nv := 1 + r.Intn(20)
		sets := make([]*features.Set, nv)
		for i := range sets {
			n := r.Intn(10) // includes 0 and 1: no-ratio-test views
			if binary {
				sets[i] = randBinarySet(r, n, 8)
			} else {
				sets[i] = randFloatSet(r, n, 16, 6)
			}
		}
		ix := NewDescriptorIndex(sets)
		var q *features.Set
		if binary {
			q = randBinarySet(r, 1+r.Intn(12), 8)
		} else {
			q = randFloatSet(r, 1+r.Intn(12), 16, 6)
		}
		want := make([]int32, nv)
		ix.GoodMatchCounts(q, 0.8, want)
		for _, shards := range shardCounts {
			sx := NewShardedIndex(ix, shards)
			got := make([]int32, nv)
			for i := range got {
				got[i] = -1 // poison: every entry must be overwritten
			}
			sx.GoodMatchCounts(q, 0.8, got)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d (binary=%v) shards=%d view %d: sharded count %d != flat %d",
						trial, binary, shards, v, got[v], want[v])
				}
			}
		}
	}
}

// TestShardedGalleryClassifyEqualsFlat runs real extractors end to end:
// for every descriptor family, ShardedGallery.ClassifyStatsCtx must
// reproduce Descriptor.Classify exactly (class, winning view and score)
// at every shard count. Under -race this also exercises the concurrent shard
// fan-out against the shared count buffer.
func TestShardedGalleryClassifyEqualsFlat(t *testing.T) {
	cfg := dataset.Config{Size: 48, Seed: 3}
	g := NewGallery(dataset.BuildSNS1(cfg))
	queries := dataset.BuildSNS2(cfg).Samples[:6]
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		p := NewDescriptor(kind, 0.5)
		p.Prepare(g, 0)
		for _, shards := range shardCounts {
			sg := NewShardedGallery(g, shards)
			for qi, q := range queries {
				want := p.Classify(q.Image, g)
				got, _, _ := sg.ClassifyStatsCtx(context.Background(), p, q.Image)
				if got != want {
					t.Fatalf("%s shards=%d query %d: sharded %+v != flat %+v", kind, shards, qi, got, want)
				}
			}
		}
	}
}

// TestShardedGalleryNonDescriptorPassthrough checks that pipelines
// without a flat index route through the plain gallery unchanged.
func TestShardedGalleryNonDescriptorPassthrough(t *testing.T) {
	cfg := dataset.Config{Size: 32, Seed: 5}
	g := NewGallery(dataset.BuildSNS1(cfg))
	sg := NewShardedGallery(g, 4)
	p := DefaultHybrid(WeightedSum)
	q := dataset.BuildSNS2(cfg).Samples[0]
	got, _, _ := sg.ClassifyStatsCtx(context.Background(), p, q.Image)
	if want := p.Classify(q.Image, g); got != want {
		t.Fatalf("hybrid passthrough: %+v != %+v", got, want)
	}
}
