package orb

import (
	"math"
	"testing"

	"snmatch/internal/features/match"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

// sceneImage builds a textured test image with blocks and shapes.
func sceneImage(seed uint64) *imaging.Gray {
	r := rng.New(seed)
	img := imaging.NewImageFilled(128, 128, imaging.C(40, 40, 40))
	for i := 0; i < 12; i++ {
		x := r.Intn(90) + 10
		y := r.Intn(90) + 10
		w := r.Intn(20) + 8
		h := r.Intn(20) + 8
		v := uint8(r.Intn(200) + 55)
		img.FillRect(geom.R(x, y, x+w, y+h), imaging.C(v, v, v))
	}
	return img.ToGray()
}

func TestExtractProducesDescriptors(t *testing.T) {
	set := Extract(sceneImage(1), Params{NFeatures: 100, FASTThreshold: 15})
	if set.Len() == 0 {
		t.Fatal("no ORB features")
	}
	if !set.Binary {
		t.Fatal("ORB descriptors should be binary")
	}
	if set.RowBytes != 32 || set.WordsPerRow != 4 {
		t.Fatalf("descriptors are %d bytes in %d words, want 32 in 4", set.RowBytes, set.WordsPerRow)
	}
	if len(set.Words) != set.Len()*set.WordsPerRow {
		t.Fatalf("keypoints %d != descriptors %d", set.Len(), len(set.Words)/set.WordsPerRow)
	}
}

func TestExtractDeterministic(t *testing.T) {
	a := Extract(sceneImage(2), Params{NFeatures: 50, FASTThreshold: 15})
	b := Extract(sceneImage(2), Params{NFeatures: 50, FASTThreshold: 15})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatal("descriptors not deterministic")
		}
	}
}

func TestNFeaturesCap(t *testing.T) {
	set := Extract(sceneImage(3), Params{NFeatures: 10, FASTThreshold: 10})
	if set.Len() > 10 {
		t.Errorf("cap exceeded: %d", set.Len())
	}
}

func TestKeypointsWithinImage(t *testing.T) {
	set := Extract(sceneImage(4), Params{NFeatures: 200, FASTThreshold: 10})
	for _, kp := range set.Keypoints {
		if kp.X < 0 || kp.X >= 128 || kp.Y < 0 || kp.Y >= 128 {
			t.Fatalf("keypoint out of bounds: %+v", kp)
		}
		if kp.Angle < 0 || kp.Angle >= float32(2*math.Pi)+1e-3 {
			t.Fatalf("angle out of range: %v", kp.Angle)
		}
	}
}

func TestSelfMatchIsStrong(t *testing.T) {
	g := sceneImage(5)
	a := Extract(g, Params{NFeatures: 80, FASTThreshold: 15})
	b := Extract(g, Params{NFeatures: 80, FASTThreshold: 15})
	if a.Len() < 5 {
		t.Skip("too few features for a meaningful test")
	}
	best := match.Best(a, b)
	zeros := 0
	for _, m := range best {
		if m.Distance == 0 {
			zeros++
		}
	}
	if zeros < a.Len()/2 {
		t.Errorf("only %d/%d exact self matches", zeros, a.Len())
	}
}

func TestTranslatedImageMatches(t *testing.T) {
	g := sceneImage(6)
	// Translate content by (5, 3).
	img := g.ToImage()
	shifted := img.WarpAffine(geom.Translation(5, 3), img.W, img.H, imaging.C(40, 40, 40))
	a := Extract(g, Params{NFeatures: 120, FASTThreshold: 15})
	b := Extract(shifted.ToGray(), Params{NFeatures: 120, FASTThreshold: 15})
	if a.Len() < 10 || b.Len() < 10 {
		t.Skip("too few features")
	}
	good := match.RatioTest(match.KNN(a, b, 2), 0.8)
	if len(good) < 5 {
		t.Errorf("only %d good matches after translation", len(good))
	}
	// Matched displacement should be ~(5, 3) for most survivors.
	consistent := 0
	for _, m := range good {
		ka, kb := a.Keypoints[m.QueryIdx], b.Keypoints[m.TrainIdx]
		dx, dy := kb.X-ka.X, kb.Y-ka.Y
		if math.Abs(float64(dx-5)) < 2.5 && math.Abs(float64(dy-3)) < 2.5 {
			consistent++
		}
	}
	if consistent*2 < len(good) {
		t.Errorf("only %d/%d displacement-consistent matches", consistent, len(good))
	}
}

func TestFlatImageNoFeatures(t *testing.T) {
	g := imaging.NewImageFilled(64, 64, imaging.C(100, 100, 100)).ToGray()
	if set := Extract(g, Params{}); set.Len() != 0 {
		t.Errorf("flat image produced %d features", set.Len())
	}
}

func TestTinyImageDoesNotPanic(t *testing.T) {
	g := imaging.NewImageFilled(8, 8, imaging.C(10, 10, 10)).ToGray()
	set := Extract(g, Params{})
	if set.Len() != 0 {
		t.Errorf("tiny image features = %d", set.Len())
	}
}
