package surf

import (
	"math"
	"testing"

	"snmatch/internal/features/match"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

func blobScene(seed uint64, size int) *imaging.Gray {
	r := rng.New(seed)
	img := imaging.NewImageFilled(size, size, imaging.C(30, 30, 30))
	for i := 0; i < 14; i++ {
		x := r.Intn(size-30) + 15
		y := r.Intn(size-30) + 15
		rad := float64(r.Intn(8) + 4)
		v := uint8(r.Intn(200) + 55)
		img.FillCircle(geom.Pt(float64(x), float64(y)), rad, imaging.C(v, v, v))
	}
	return img.ToGray()
}

func TestExtractFindsBlobs(t *testing.T) {
	set := Extract(blobScene(1, 128), Params{HessianThreshold: 100})
	if set.Len() == 0 {
		t.Fatal("no SURF keypoints")
	}
	if set.Binary {
		t.Fatal("SURF descriptors must be float")
	}
	if set.Dim != 64 {
		t.Fatalf("descriptor length = %d, want 64", set.Dim)
	}
	for i := 0; i < set.Len(); i++ {
		d := set.FloatRow(i)
		var norm float64
		for _, v := range d {
			norm += float64(v) * float64(v)
		}
		if math.Abs(math.Sqrt(norm)-1) > 0.01 {
			t.Fatalf("descriptor norm = %v", math.Sqrt(norm))
		}
	}
}

func TestSingleBlobLocalised(t *testing.T) {
	img := imaging.NewImageFilled(96, 96, imaging.C(20, 20, 20))
	img.FillCircle(geom.Pt(48, 48), 8, imaging.White)
	set := Extract(img.ToGray(), Params{HessianThreshold: 50})
	if set.Len() == 0 {
		t.Fatal("no keypoints on a single blob")
	}
	found := false
	for _, kp := range set.Keypoints {
		if math.Hypot(float64(kp.X-48), float64(kp.Y-48)) < 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("no keypoint near blob centre: %+v", set.Keypoints)
	}
}

func TestDeterministic(t *testing.T) {
	a := Extract(blobScene(2, 128), Params{HessianThreshold: 100})
	b := Extract(blobScene(2, 128), Params{HessianThreshold: 100})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Floats {
		if a.Floats[i] != b.Floats[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestThresholdMonotone(t *testing.T) {
	g := blobScene(3, 128)
	lo := Extract(g, Params{HessianThreshold: 50})
	hi := Extract(g, Params{HessianThreshold: 5000})
	if hi.Len() > lo.Len() {
		t.Errorf("higher threshold found more keypoints: %d > %d", hi.Len(), lo.Len())
	}
}

func TestFlatImageNoKeypoints(t *testing.T) {
	g := imaging.NewImageFilled(96, 96, imaging.C(99, 99, 99)).ToGray()
	if set := Extract(g, Params{}); set.Len() != 0 {
		t.Errorf("flat image keypoints = %d", set.Len())
	}
}

func TestTranslatedSceneMatches(t *testing.T) {
	g := blobScene(4, 128)
	img := g.ToImage()
	shifted := img.WarpAffine(geom.Translation(7, 5), img.W, img.H, imaging.C(30, 30, 30)).ToGray()
	a := Extract(g, Params{HessianThreshold: 100})
	b := Extract(shifted, Params{HessianThreshold: 100})
	if a.Len() < 4 || b.Len() < 4 {
		t.Skipf("too few keypoints: %d %d", a.Len(), b.Len())
	}
	good := match.RatioTest(match.KNN(a, b, 2), 0.8)
	if len(good) == 0 {
		t.Fatal("no matches after translation")
	}
	consistent := 0
	for _, m := range good {
		ka, kb := a.Keypoints[m.QueryIdx], b.Keypoints[m.TrainIdx]
		if math.Abs(float64(kb.X-ka.X-7)) < 3 && math.Abs(float64(kb.Y-ka.Y-5)) < 3 {
			consistent++
		}
	}
	if consistent*2 < len(good) {
		t.Errorf("only %d/%d displacement-consistent matches", consistent, len(good))
	}
}

func TestUprightMode(t *testing.T) {
	g := blobScene(5, 128)
	set := Extract(g, Params{HessianThreshold: 100, Upright: true})
	for _, kp := range set.Keypoints {
		if kp.Angle != 0 {
			t.Fatalf("upright keypoint has angle %v", kp.Angle)
		}
	}
}

func TestTinyImageDoesNotPanic(t *testing.T) {
	g := imaging.NewImageFilled(12, 12, imaging.C(10, 10, 10)).ToGray()
	if set := Extract(g, Params{}); set.Len() != 0 {
		t.Errorf("tiny image keypoints = %d", set.Len())
	}
}

// TestDenseRowMatchesHessianAt pins the hoisted clamp-free response
// sweep to the per-cell reference across every layer configuration the
// extractor builds, including rows and columns where clamping engages.
func TestDenseRowMatchesHessianAt(t *testing.T) {
	g := imaging.NewGray(48, 40)
	s := uint32(17)
	for i := range g.Pix {
		s = s*1664525 + 1013904223
		g.Pix[i] = byte(s >> 24)
	}
	it := imaging.NewIntegralSum(g)
	p := Params{}.withDefaults()
	layers := buildResponseLayers(it, g.W, g.H, p, nil)
	if len(layers) == 0 {
		t.Fatal("no response layers built")
	}
	for o, oct := range layers {
		for li, layer := range oct {
			hf := newHessianFilter(layer.filter)
			for gy := 0; gy < layer.height; gy++ {
				for gx := 0; gx < layer.width; gx++ {
					want, wantLap := hessianAt(it, gy*layer.step, gx*layer.step, hf)
					got := layer.responses[gy*layer.width+gx]
					gotLap := layer.laplacian[gy*layer.width+gx]
					if math.Float32bits(want) != math.Float32bits(got) || wantLap != gotLap {
						t.Fatalf("octave %d layer %d cell (%d,%d): %v/%v, want %v/%v",
							o, li, gx, gy, got, gotLap, want, wantLap)
					}
				}
			}
		}
	}
}
