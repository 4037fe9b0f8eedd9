// Package brief implements BRIEF binary descriptors (Calonder et al.
// 2010): pairwise intensity comparisons on a smoothed patch, packed into
// a bit string. The sampling pattern is steered by the keypoint
// orientation, as ORB's rBRIEF requires.
package brief

import (
	"math"

	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

// PatchSize is the side of the square sampling patch.
const PatchSize = 31

// Pattern is a set of point pairs to compare. Coordinates are offsets
// from the patch centre.
type Pattern struct {
	Ax, Ay, Bx, By []float32
}

// Bits returns the descriptor length in bits.
func (p *Pattern) Bits() int { return len(p.Ax) }

// NewPattern samples nBits point pairs from an isotropic Gaussian with
// sigma = PatchSize/5, clipped to the patch, using the deterministic seed.
// This follows the G-II strategy of the BRIEF paper; a fixed seed yields
// the same pattern on every run, standing in for ORB's learned pattern.
func NewPattern(nBits int, seed uint64) *Pattern {
	r := rng.New(seed)
	p := &Pattern{
		Ax: make([]float32, nBits), Ay: make([]float32, nBits),
		Bx: make([]float32, nBits), By: make([]float32, nBits),
	}
	const sigma = float64(PatchSize) / 5
	const half = float64(PatchSize)/2 - 1
	draw := func() float32 {
		for {
			v := r.NormRange(0, sigma)
			if v >= -half && v <= half {
				return float32(v)
			}
		}
	}
	for i := 0; i < nBits; i++ {
		p.Ax[i], p.Ay[i] = draw(), draw()
		p.Bx[i], p.By[i] = draw(), draw()
	}
	return p
}

// InBounds reports whether kp lies far enough from the border of g for
// its sampling patch: the keypoints BRIEF describes.
func InBounds(g *imaging.Gray, kp features.Keypoint) bool {
	border := PatchSize/2 + 1
	x, y := int(kp.X+0.5), int(kp.Y+0.5)
	return x >= border && y >= border && x < g.W-border && y < g.H-border
}

// DescribeSteeredIn writes the steered BRIEF (rBRIEF) descriptor of kp,
// which must be InBounds, into row, a zeroed row of a binary set's
// matrix holding (Bits()+63)/64 words: the sampling pattern is rotated
// by kp.Angle (an undefined angle, -1, leaves it unrotated), and
// comparison i sets bit i%64 of row[i/64]. The image should already be
// smoothed (ORB applies a Gaussian with sigma 2 first).
func DescribeSteeredIn(g *imaging.Gray, kp features.Keypoint, p *Pattern, row []uint64) {
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
			row[i/64] |= 1 << (i % 64)
		}
	}
}

// roundBias returns +0.5 for non-negative values and -0.5 otherwise so
// int conversion rounds to nearest.
func roundBias(v float32) float32 {
	if v >= 0 {
		return 0.5
	}
	return -0.5
}
