package sift

import (
	"math"
	"testing"

	"snmatch/internal/features"
	"snmatch/internal/features/match"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

func blobImage() *imaging.Gray {
	// A bright Gaussian-ish blob: a classic DoG extremum.
	img := imaging.NewImage(64, 64)
	img.FillCircle(geom.Pt(32, 32), 6, imaging.White)
	return img.ToGray().GaussianBlur(1.5)
}

func texturedScene(seed uint64) *imaging.Gray {
	r := rng.New(seed)
	img := imaging.NewImageFilled(96, 96, imaging.C(30, 30, 30))
	for i := 0; i < 10; i++ {
		x := r.Intn(70) + 8
		y := r.Intn(70) + 8
		rad := float64(r.Intn(6) + 3)
		v := uint8(r.Intn(200) + 55)
		img.FillCircle(geom.Pt(float64(x), float64(y)), rad, imaging.C(v, v, v))
	}
	return img.ToGray()
}

func TestBlobDetected(t *testing.T) {
	set := Extract(blobImage(), Params{})
	if set.Len() == 0 {
		t.Fatal("no keypoints on a blob")
	}
	// At least one keypoint near the blob centre.
	found := false
	for _, kp := range set.Keypoints {
		if math.Hypot(float64(kp.X-32), float64(kp.Y-32)) < 4 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no keypoint near blob centre; got %+v", set.Keypoints)
	}
}

func TestDescriptorShapeAndNorm(t *testing.T) {
	set := Extract(texturedScene(1), Params{})
	if set.Len() == 0 {
		t.Fatal("no keypoints")
	}
	if set.Binary {
		t.Fatal("SIFT must produce float descriptors")
	}
	if set.Dim != 128 {
		t.Fatalf("descriptor length = %d", set.Dim)
	}
	for i := 0; i < set.Len(); i++ {
		d := set.FloatRow(i)
		var norm float64
		for _, v := range d {
			if v < 0 {
				t.Fatal("negative descriptor entry")
			}
			norm += float64(v) * float64(v)
		}
		norm = math.Sqrt(norm)
		if math.Abs(norm-1) > 0.01 {
			t.Fatalf("descriptor norm = %v", norm)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Extract(texturedScene(2), Params{})
	b := Extract(texturedScene(2), Params{})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if features.L2(a.FloatRow(i), b.FloatRow(i)) != 0 {
			t.Fatal("descriptors not deterministic")
		}
	}
}

func TestFlatImageNoKeypoints(t *testing.T) {
	g := imaging.NewImageFilled(64, 64, imaging.C(120, 120, 120)).ToGray()
	if set := Extract(g, Params{}); set.Len() != 0 {
		t.Errorf("flat image keypoints = %d", set.Len())
	}
}

func TestContrastThresholdMonotone(t *testing.T) {
	g := texturedScene(3)
	lo := Extract(g, Params{ContrastThreshold: 0.01})
	hi := Extract(g, Params{ContrastThreshold: 0.2})
	if hi.Len() > lo.Len() {
		t.Errorf("higher contrast threshold kept more keypoints: %d > %d", hi.Len(), lo.Len())
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	g := texturedScene(4)
	set := Extract(g, Params{MaxFeatures: 5, ContrastThreshold: 0.01})
	if set.Len() > 5 {
		t.Errorf("cap exceeded: %d", set.Len())
	}
}

func TestTranslatedSceneMatches(t *testing.T) {
	g := texturedScene(5)
	img := g.ToImage()
	shifted := img.WarpAffine(geom.Translation(6, 4), img.W, img.H, imaging.C(30, 30, 30)).ToGray()
	a := Extract(g, Params{})
	b := Extract(shifted, Params{})
	if a.Len() < 5 || b.Len() < 5 {
		t.Skipf("too few keypoints: %d, %d", a.Len(), b.Len())
	}
	good := match.RatioTest(match.KNN(a, b, 2), 0.8)
	if len(good) < 3 {
		t.Fatalf("only %d ratio-test matches", len(good))
	}
	consistent := 0
	for _, m := range good {
		ka, kb := a.Keypoints[m.QueryIdx], b.Keypoints[m.TrainIdx]
		if math.Abs(float64(kb.X-ka.X-6)) < 2.5 && math.Abs(float64(kb.Y-ka.Y-4)) < 2.5 {
			consistent++
		}
	}
	if consistent*2 < len(good) {
		t.Errorf("only %d/%d displacement-consistent matches", consistent, len(good))
	}
}

func TestScaledSceneStillMatches(t *testing.T) {
	g := texturedScene(7)
	big := g.ResizeBilinear(g.W*3/2, g.H*3/2)
	a := Extract(g, Params{})
	b := Extract(big, Params{})
	if a.Len() < 5 || b.Len() < 5 {
		t.Skipf("too few keypoints: %d %d", a.Len(), b.Len())
	}
	good := match.RatioTest(match.KNN(a, b, 2), 0.8)
	if len(good) == 0 {
		t.Error("no matches across 1.5x scaling")
	}
}

func TestNoDoubleImageStillWorks(t *testing.T) {
	set := Extract(texturedScene(8), Params{NoDoubleImage: true})
	// Fewer keypoints than the doubled pipeline is expected, but the
	// extractor must still function.
	if set.Len() > 0 && set.Dim != 128 {
		t.Fatal("bad descriptor length without doubling")
	}
}

func TestTinyImageDoesNotPanic(t *testing.T) {
	g := imaging.NewImageFilled(10, 10, imaging.C(50, 50, 50)).ToGray()
	_ = Extract(g, Params{})
}
