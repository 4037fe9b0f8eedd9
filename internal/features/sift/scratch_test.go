package sift

import (
	"math"
	"testing"

	"snmatch/internal/arena"
)

// TestExtractScratchMatchesExtract reuses one scratch across a stream
// of scenes (twice, so every buffer is recycled) and requires the
// pooled extraction to equal the fresh one bit for bit.
func TestExtractScratchMatchesExtract(t *testing.T) {
	sc := &Scratch{A: arena.New()}
	for round := 0; round < 2; round++ {
		for seed := uint64(1); seed <= 3; seed++ {
			g := texturedScene(seed)
			want := Extract(g, Params{MaxFeatures: 60})
			got := ExtractScratch(g, Params{MaxFeatures: 60}, sc)
			if want.Len() != got.Len() {
				t.Fatalf("round %d seed %d: %d keypoints, want %d", round, seed, got.Len(), want.Len())
			}
			if got.Binary || got.Dim != want.Dim {
				t.Fatalf("pooled set shape %+v, want %+v", got, want)
			}
			for i := range want.Keypoints {
				if want.Keypoints[i] != got.Keypoints[i] {
					t.Fatalf("round %d seed %d: keypoint %d differs", round, seed, i)
				}
			}
			for i := range want.Floats {
				if math.Float32bits(want.Floats[i]) != math.Float32bits(got.Floats[i]) {
					t.Fatalf("round %d seed %d: descriptor component %d differs", round, seed, i)
				}
			}
			sc.A.Reset()
		}
	}
}
