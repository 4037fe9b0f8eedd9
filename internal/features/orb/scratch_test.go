package orb

import (
	"testing"

	"snmatch/internal/arena"
)

// TestExtractScratchMatchesExtract reuses one scratch across a stream
// of scenes (twice, so every buffer — including the cached BRIEF
// pattern — is recycled) and requires the pooled extraction to equal
// the fresh one bit for bit.
func TestExtractScratchMatchesExtract(t *testing.T) {
	sc := &Scratch{A: arena.New()}
	params := Params{NFeatures: 120, FASTThreshold: 15}
	for round := 0; round < 2; round++ {
		for seed := uint64(1); seed <= 3; seed++ {
			g := sceneImage(seed)
			want := Extract(g, params)
			got := ExtractScratch(g, params, sc)
			if want.Len() != got.Len() {
				t.Fatalf("round %d seed %d: %d keypoints, want %d", round, seed, got.Len(), want.Len())
			}
			if !got.Binary || got.RowBytes != want.RowBytes || got.WordsPerRow != want.WordsPerRow {
				t.Fatalf("pooled ORB set shape %+v, want %+v", got, want)
			}
			for i := range want.Keypoints {
				if want.Keypoints[i] != got.Keypoints[i] {
					t.Fatalf("round %d seed %d: keypoint %d differs", round, seed, i)
				}
			}
			for i := range want.Words {
				if want.Words[i] != got.Words[i] {
					t.Fatalf("round %d seed %d: descriptor word %d differs", round, seed, i)
				}
			}
			sc.A.Reset()
		}
	}
}

// TestScratchPatternCacheFollowsSeed pins the seed-keyed pattern cache:
// changing the seed mid-stream must re-derive the pattern, not reuse
// the cached one.
func TestScratchPatternCacheFollowsSeed(t *testing.T) {
	sc := &Scratch{A: arena.New()}
	g := sceneImage(2)
	for _, seed := range []uint64{3, 9, 3} {
		params := Params{NFeatures: 60, Seed: seed}
		want := Extract(g, params)
		got := ExtractScratch(g, params, sc)
		if want.Len() != got.Len() {
			t.Fatalf("seed %d: %d keypoints, want %d", seed, got.Len(), want.Len())
		}
		for i := range want.Words {
			if want.Words[i] != got.Words[i] {
				t.Fatalf("seed %d: descriptor word %d differs", seed, i)
			}
		}
		sc.A.Reset()
	}
}
