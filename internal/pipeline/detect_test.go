package pipeline

import (
	"testing"

	"snmatch/internal/geom"
	"snmatch/internal/histogram"
	"snmatch/internal/moments"
	"snmatch/internal/rng"
	"snmatch/internal/synth"
)

// iou returns intersection-over-union of two boxes.
func iou(a, b geom.Rect) float64 {
	inter := a.Intersect(b).Area()
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(a.Area()+b.Area()-inter)
}

// TestDetectSceneFindsObjects composes a clean 3-object scene and
// requires every ground-truth box to be covered by a proposal with
// IoU >= 0.5, and the per-region classifications to carry real labels.
func TestDetectSceneFindsObjects(t *testing.T) {
	sc := synth.ComposeSceneP(synth.SceneParams{
		W: 320, H: 240, Seed: 11,
		Classes: []synth.Class{synth.Chair, synth.Bottle, synth.Lamp},
	})
	dets := Detect(sc.Image, DefaultHybrid(WeightedSum), gallery1, DetectParams{})
	if len(dets) < len(sc.Objects) {
		t.Fatalf("detections = %d, want >= %d", len(dets), len(sc.Objects))
	}
	for i, obj := range sc.Objects {
		best := 0.0
		for _, d := range dets {
			if v := iou(obj.Box, d.Box); v > best {
				best = v
			}
		}
		if best < 0.5 {
			t.Errorf("object %d (%v): best IoU = %.2f, want >= 0.5", i, obj.Class, best)
		}
	}
	for i, d := range dets {
		if d.Index < 0 {
			t.Errorf("detection %d: no winning view", i)
		}
		t.Logf("detection %d: box=%+v class=%v score=%.3f", i, d.Box, d.Class, d.Score)
	}
}

// TestDetectParallelSerialIdentity is the house determinism rule for
// the detector: randomized scenes (occlusion, noise, clutter, varying
// object counts) must produce bit-identical detection lists at workers
// 1, 4 and 16, for stateless pipelines and the stateful serial
// fallback alike.
func TestDetectParallelSerialIdentity(t *testing.T) {
	r := rng.New(77)
	pipes := []Pipeline{
		DefaultHybrid(WeightedSum),
		ShapeOnly{Method: moments.MatchI3},
		ColorOnly{Metric: histogram.Hellinger},
		NewDescriptor(ORB, 0.5),
	}
	for round := 0; round < 4; round++ {
		n := r.IntRange(1, 4)
		classes := make([]synth.Class, n)
		for i := range classes {
			classes[i] = synth.AllClasses[r.Intn(len(synth.AllClasses))]
		}
		sp := synth.SceneParams{
			W: 280, H: 200, Seed: uint64(round + 1),
			Classes:   classes,
			Occlusion: r.Range(0, 0.5),
			Clutter:   r.Intn(4),
		}
		if r.Bool(0.5) {
			sp.NoiseSigma = r.Range(0, 8)
		}
		sc := synth.ComposeSceneP(sp)
		for _, pl := range pipes {
			base := Detect(sc.Image, pl, gallery1, DetectParams{Workers: 1})
			for _, workers := range []int{4, 16} {
				got := Detect(sc.Image, pl, gallery1, DetectParams{Workers: workers})
				if len(got) != len(base) {
					t.Fatalf("round %d %s workers=%d: %d detections, serial has %d",
						round, pl.Name(), workers, len(got), len(base))
				}
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("round %d %s workers=%d detection %d: %+v, serial %+v",
							round, pl.Name(), workers, i, got[i], base[i])
					}
				}
			}
		}
	}
}

// TestDetectStatefulPipelineDeterministic pins the Forker fallback: a
// stateful pipeline detects serially regardless of the worker request,
// so equal-seeded pipelines produce equal detections at any count.
func TestDetectStatefulPipelineDeterministic(t *testing.T) {
	sc := synth.ComposeSceneP(synth.SceneParams{
		W: 320, H: 240, Seed: 5,
		Classes: []synth.Class{synth.Chair, synth.Sofa, synth.Table},
	})
	base := Detect(sc.Image, NewRandom(9), gallery1, DetectParams{Workers: 1})
	for _, workers := range []int{4, 16} {
		got := Detect(sc.Image, NewRandom(9), gallery1, DetectParams{Workers: workers})
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d detections, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d detection %d: %+v, serial %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestDetectEdgeCases sweeps the degenerate scenes: an empty scene
// (clutter only) proposes nothing, and two stacked objects merge into
// a single foreground blob and hence a single region.
func TestDetectEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		sc := synth.ComposeSceneP(synth.SceneParams{W: 200, H: 160, Seed: 2, Clutter: 6})
		if regions, _ := ProposeCrops(sc.Image, DetectParams{}); len(regions) != 0 {
			t.Errorf("empty scene proposed %d regions: %+v", len(regions), regions)
		}
		if dets := Detect(sc.Image, DefaultHybrid(WeightedSum), gallery1, DetectParams{}); len(dets) != 0 {
			t.Errorf("empty scene detected %d objects", len(dets))
		}
	})
	t.Run("stacked", func(t *testing.T) {
		sc := synth.ComposeSceneP(synth.SceneParams{
			W: 160, H: 160, Seed: 3,
			Classes:   []synth.Class{synth.Bottle, synth.Chair},
			Occlusion: 1,
		})
		if sc.Objects[0].Occluded < 0.2 {
			t.Fatalf("fixture: first object barely occluded (%v)", sc.Objects[0].Occluded)
		}
		regions, _ := ProposeCrops(sc.Image, DetectParams{})
		if len(regions) != 1 {
			t.Errorf("stacked objects proposed %d regions, want 1: %+v", len(regions), regions)
		}
	})
}

// TestProposeCropsMasksBackground checks the NYU-style masking: crop
// pixels outside the foreground mask are black, and enough object
// pixels survive for downstream preprocessing.
func TestProposeCropsMasksBackground(t *testing.T) {
	sc := synth.ComposeSceneP(synth.SceneParams{
		W: 320, H: 240, Seed: 7,
		Classes: []synth.Class{synth.Chair, synth.Bottle},
	})
	regions, crops := ProposeCrops(sc.Image, DetectParams{})
	if len(regions) != len(crops) {
		t.Fatalf("regions %d != crops %d", len(regions), len(crops))
	}
	for i, crop := range crops {
		var object int
		for p := 0; p < crop.W*crop.H; p++ {
			if crop.Pix[3*p] != 0 || crop.Pix[3*p+1] != 0 || crop.Pix[3*p+2] != 0 {
				object++
			}
		}
		if object < 50 {
			t.Errorf("crop %d: only %d foreground pixels", i, object)
		}
		// Corners sit on padded background and must be masked black.
		if c := crop.At(0, 0); c.R != 0 || c.G != 0 || c.B != 0 {
			t.Errorf("crop %d: corner not masked: %+v", i, c)
		}
	}
}
