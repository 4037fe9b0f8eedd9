package brief

import (
	"math"
	"testing"

	"snmatch/internal/features"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
)

func texturedImage() *imaging.Gray {
	img := imaging.NewImage(96, 96)
	// Blocks of varying intensity create informative comparisons.
	for by := 0; by < 6; by++ {
		for bx := 0; bx < 6; bx++ {
			v := uint8((bx*47 + by*89 + 31) % 256)
			img.FillRect(geom.R(bx*16, by*16, bx*16+16, by*16+16), imaging.C(v, v, v))
		}
	}
	return img.ToGray()
}

func centerKp() []features.Keypoint {
	return []features.Keypoint{{X: 48, Y: 48, Angle: -1}}
}

func TestPatternDeterministic(t *testing.T) {
	a := NewPattern(256, 7)
	b := NewPattern(256, 7)
	for i := range a.Ax {
		if a.Ax[i] != b.Ax[i] || a.By[i] != b.By[i] {
			t.Fatal("patterns differ for equal seeds")
		}
	}
	c := NewPattern(256, 8)
	same := 0
	for i := range a.Ax {
		if a.Ax[i] == c.Ax[i] {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds share %d coordinates", same)
	}
}

func TestPatternWithinPatch(t *testing.T) {
	p := NewPattern(512, 3)
	half := float32(PatchSize) / 2
	for i := range p.Ax {
		for _, v := range []float32{p.Ax[i], p.Ay[i], p.Bx[i], p.By[i]} {
			if v < -half || v > half {
				t.Fatalf("pattern point %v outside patch", v)
			}
		}
	}
	if p.Bits() != 512 {
		t.Errorf("Bits = %d", p.Bits())
	}
}

// describe runs DescribeSteeredIn over the keypoints of kps that are
// InBounds, into a fresh binary set with one row each, as ORB does.
func describe(g *imaging.Gray, kps []features.Keypoint, p *Pattern) *features.Set {
	var kept []features.Keypoint
	for _, kp := range kps {
		if InBounds(g, kp) {
			kept = append(kept, kp)
		}
	}
	s := features.NewSet(nil, true, len(kept), (p.Bits()+7)/8)
	for i, kp := range kept {
		DescribeSteeredIn(g, kp, p, s.WordRow(i))
		s.Keypoints = append(s.Keypoints, kp)
	}
	return s
}

func TestDescribeLengthAndDeterminism(t *testing.T) {
	g := texturedImage()
	p := NewPattern(256, 1)
	s := describe(g, centerKp(), p)
	if s.Len() != 1 {
		t.Fatalf("kept %d keypoints", s.Len())
	}
	if s.RowBytes != 32 || s.WordsPerRow != 4 {
		t.Errorf("descriptor width = %d bytes in %d words, want 32 in 4", s.RowBytes, s.WordsPerRow)
	}
	s2 := describe(g, centerKp(), p)
	if features.HammingWords(s.WordRow(0), s2.WordRow(0)) != 0 {
		t.Error("descriptor not deterministic")
	}
}

func TestDescribeDropsBorderKeypoints(t *testing.T) {
	g := texturedImage()
	p := NewPattern(128, 1)
	kps := []features.Keypoint{{X: 2, Y: 2}, {X: 48, Y: 48}, {X: 95, Y: 95}}
	s := describe(g, kps, p)
	if s.Len() != 1 {
		t.Fatalf("kept = %d, want only the centre keypoint", s.Len())
	}
	if s.Keypoints[0].X != 48 {
		t.Errorf("wrong keypoint kept: %+v", s.Keypoints[0])
	}
}

func TestDescriptorRobustToMildNoise(t *testing.T) {
	g := texturedImage()
	p := NewPattern(256, 1)
	d1 := describe(g, centerKp(), p)
	// Perturb a few pixels slightly.
	g2 := g.Clone()
	for i := 0; i < len(g2.Pix); i += 97 {
		v := int(g2.Pix[i]) + 3
		if v > 255 {
			v = 255
		}
		g2.Pix[i] = uint8(v)
	}
	d2 := describe(g2, centerKp(), p)
	if d := features.HammingWords(d1.WordRow(0), d2.WordRow(0)); d > 40 {
		t.Errorf("Hamming under mild noise = %d", d)
	}
}

func TestDescriptorDiscriminates(t *testing.T) {
	g := texturedImage()
	inv := g.Clone()
	for i, v := range inv.Pix {
		inv.Pix[i] = 255 - v
	}
	p := NewPattern(256, 1)
	d1 := describe(g, centerKp(), p)
	d2 := describe(inv, centerKp(), p)
	// Inverting the image flips (almost) every informative comparison.
	if d := features.HammingWords(d1.WordRow(0), d2.WordRow(0)); d < 100 {
		t.Errorf("inverted image Hamming = %d, want large", d)
	}
}

func TestSteeredRotationConsistency(t *testing.T) {
	// Describing a rotated image with the rotated angle should be closer
	// to the original than describing it with angle 0.
	img := imaging.NewImage(129, 129)
	for by := 0; by < 8; by++ {
		for bx := 0; bx < 8; bx++ {
			v := uint8((bx*37 + by*101 + 13) % 256)
			img.FillRect(geom.R(bx*16, by*16, bx*16+16, by*16+16), imaging.C(v, v, v))
		}
	}
	theta := math.Pi / 6
	rot := img.RotateAbout(theta, imaging.Black)
	g, gr := img.ToGray(), rot.ToGray()

	p := NewPattern(256, 2)
	kp0 := []features.Keypoint{{X: 64, Y: 64, Angle: 0}}
	// The image content rotated by theta appears at orientation theta.
	kpRot := []features.Keypoint{{X: 64, Y: 64, Angle: float32(theta)}}
	kpZero := []features.Keypoint{{X: 64, Y: 64, Angle: 0}}

	base := describe(g, kp0, p)
	steered := describe(gr, kpRot, p)
	unsteered := describe(gr, kpZero, p)

	dSteer := features.HammingWords(base.WordRow(0), steered.WordRow(0))
	dPlain := features.HammingWords(base.WordRow(0), unsteered.WordRow(0))
	if dSteer >= dPlain {
		t.Errorf("steering did not help: steered=%d plain=%d", dSteer, dPlain)
	}
}

// referenceBytes is rBRIEF in its byte-oriented form, kept as the
// reference for the word rows: comparison i sets bit i%8 of byte i/8.
func referenceBytes(g *imaging.Gray, kp features.Keypoint, p *Pattern) []byte {
	desc := make([]byte, (p.Bits()+7)/8)
	x, y := int(kp.X+0.5), int(kp.Y+0.5)
	var sin, cos float32 = 0, 1
	if kp.Angle >= 0 {
		s, c := math.Sincos(float64(kp.Angle))
		sin, cos = float32(s), float32(c)
	}
	for i := 0; i < p.Bits(); i++ {
		ax := cos*p.Ax[i] - sin*p.Ay[i]
		ay := sin*p.Ax[i] + cos*p.Ay[i]
		bx := cos*p.Bx[i] - sin*p.By[i]
		by := sin*p.Bx[i] + cos*p.By[i]
		va := g.AtClamped(x+int(ax+roundBias(ax)), y+int(ay+roundBias(ay)))
		vb := g.AtClamped(x+int(bx+roundBias(bx)), y+int(by+roundBias(by)))
		if va < vb {
			desc[i/8] |= 1 << (i % 8)
		}
	}
	return desc
}

// TestDescribeSteeredInMatchesFresh checks DescribeSteeredIn's word
// rows against a fresh byte-oriented reference packed little-endian
// into words, at a whole-word and a partial-word pattern width.
func TestDescribeSteeredInMatchesFresh(t *testing.T) {
	g := texturedImage()
	kps := []features.Keypoint{
		{X: 48, Y: 48, Angle: -1},
		{X: 40, Y: 52, Angle: 1.1},
		{X: 60, Y: 40, Angle: 4.7},
	}
	for _, bits := range []int{256, 100} {
		p := NewPattern(bits, 9)
		s := describe(g, kps, p)
		if s.Len() != len(kps) || s.WordsPerRow != (bits+63)/64 {
			t.Fatalf("bits=%d: kept %d rows of %d words", bits, s.Len(), s.WordsPerRow)
		}
		for r, kp := range kps {
			want := make([]uint64, s.WordsPerRow)
			for b, v := range referenceBytes(g, kp, p) {
				want[b/8] |= uint64(v) << (8 * (b % 8))
			}
			for w, got := range s.WordRow(r) {
				if got != want[w] {
					t.Fatalf("bits=%d row %d word %d = %#x, want %#x", bits, r, w, got, want[w])
				}
			}
		}
	}
}
