// Package orb implements ORB (Rublee et al. 2011): oFAST keypoints —
// FAST corners over an image pyramid, ranked by Harris response and
// oriented by the intensity centroid — described with steered BRIEF
// (rBRIEF). Descriptors are 256-bit strings matched with Hamming
// distance.
package orb

import (
	"math"
	"slices"

	"snmatch/internal/arena"
	"snmatch/internal/features"
	"snmatch/internal/features/brief"
	"snmatch/internal/features/fast"
	"snmatch/internal/imaging"
)

// Params configures the detector. Zero values select the defaults noted
// on each field.
type Params struct {
	NFeatures     int     // max keypoints retained (default 500)
	ScaleFactor   float64 // pyramid decimation ratio (default 1.2)
	NLevels       int     // pyramid levels (default 8)
	FASTThreshold int     // FAST intensity threshold (default 20)
	PatchRadius   int     // intensity-centroid patch radius (default 15)
	Seed          uint64  // BRIEF pattern seed (default 0x0rb)
}

func (p Params) withDefaults() Params {
	if p.NFeatures <= 0 {
		p.NFeatures = 500
	}
	if p.ScaleFactor <= 1 {
		p.ScaleFactor = 1.2
	}
	if p.NLevels <= 0 {
		p.NLevels = 8
	}
	if p.FASTThreshold <= 0 {
		p.FASTThreshold = 20
	}
	if p.PatchRadius <= 0 {
		p.PatchRadius = 15
	}
	if p.Seed == 0 {
		p.Seed = 0x0127b
	}
	return p
}

// Scratch recycles ORB's per-query working set: the pyramid levels,
// gradient planes, smoothed rasters and the returned set come from the
// arena, the FAST detector runs over its own recycled buffers, the
// corner accumulator is a reusable spine, and the (deterministic,
// seed-keyed) BRIEF pattern is computed once and cached across queries.
// A nil *Scratch allocates freshly, exactly like Extract. One
// extraction may be in flight per Scratch between arena Resets; the
// returned Set is invalid after the Reset.
type Scratch struct {
	A    *arena.Arena
	Fast fast.Scratch

	pts []levelPoint

	pat     *brief.Pattern // heap-backed: survives arena resets
	patSeed uint64
}

func (sc *Scratch) arena() *arena.Arena {
	if sc == nil {
		return nil
	}
	return sc.A
}

// pattern returns the BRIEF pattern for the seed, cached on the scratch
// so warm queries skip the Gaussian pattern draw entirely. The pattern
// is a pure function of (bits, seed), so the cache cannot change
// results.
func (sc *Scratch) pattern(seed uint64) *brief.Pattern {
	if sc == nil {
		return brief.NewPattern(256, seed)
	}
	if sc.pat == nil || sc.patSeed != seed {
		sc.pat = brief.NewPattern(256, seed)
		sc.patSeed = seed
	}
	return sc.pat
}

// Extract detects and describes ORB features on the grayscale image.
func Extract(g *imaging.Gray, params Params) *features.Set {
	return ExtractScratch(g, params, nil)
}

// ExtractScratch is Extract over a recycled extraction context; its
// output is bit-identical to Extract for every input.
func ExtractScratch(g *imaging.Gray, params Params, sc *Scratch) *features.Set {
	p := params.withDefaults()
	return extract(g, p, sc.pattern(p.Seed), sc)
}

// levelPoint is a detected corner at a pyramid level before description.
type levelPoint struct {
	kp     features.Keypoint // coordinates at the level
	level  int
	scale  float64
	harris float32
}

func extract(g *imaging.Gray, p Params, pattern *brief.Pattern, sc *Scratch) *features.Set {
	a := sc.arena()
	// Build the pyramid.
	levels := arena.Cap[*imaging.Gray](a, p.NLevels)
	scales := arena.Cap[float64](a, p.NLevels)
	cur := g
	scale := 1.0
	for i := 0; i < p.NLevels; i++ {
		if cur.W < 2*brief.PatchSize || cur.H < 2*brief.PatchSize {
			break
		}
		levels = append(levels, cur)
		scales = append(scales, scale)
		scale *= p.ScaleFactor
		nw := int(float64(g.W)/scale + 0.5)
		nh := int(float64(g.H)/scale + 0.5)
		if nw < 8 || nh < 8 {
			break
		}
		cur = g.ResizeBilinearIn(a, nw, nh)
	}
	if len(levels) == 0 {
		levels = append(levels, g)
		scales = append(scales, 1)
	}

	// Detect per level with Harris ranking. The FAST scratch's returned
	// slice is recycled by the next Detect call, so each level's corners
	// are folded into pts before the next level runs.
	var pts []levelPoint
	var fsc *fast.Scratch
	if sc != nil {
		pts = sc.pts[:0]
		fsc = &sc.Fast
		if fsc.A == nil {
			fsc.A = sc.A // FAST shares the extraction arena by default
		}
	}
	for li, lvl := range levels {
		f := lvl.ToFloatIn(a)
		gx, gy := f.SobelIn(a)
		kps := fast.DetectScratch(lvl, p.FASTThreshold, true, fsc)
		for _, kp := range kps {
			h := harrisResponse(gx, gy, int(kp.X), int(kp.Y))
			pts = append(pts, levelPoint{kp: kp, level: li, scale: scales[li], harris: h})
		}
	}
	if sc != nil {
		sc.pts = pts
	}
	// The comparator is a total order (per-level FAST corners have
	// unique coordinates), so the unstable sort has exactly one result.
	slices.SortFunc(pts, func(x, y levelPoint) int {
		switch {
		case x.harris != y.harris:
			if x.harris > y.harris {
				return -1
			}
			return 1
		case x.level != y.level:
			return x.level - y.level
		case x.kp.Y != y.kp.Y:
			if x.kp.Y < y.kp.Y {
				return -1
			}
			return 1
		case x.kp.X != y.kp.X:
			if x.kp.X < y.kp.X {
				return -1
			}
			return 1
		}
		return 0
	})
	if len(pts) > p.NFeatures {
		pts = pts[:p.NFeatures]
	}

	// Orientation by intensity centroid, then steered BRIEF per level,
	// each descriptor written into the next row of the set. Keypoints
	// too close to their level's border are dropped, and counted out
	// first so the set holds exactly one row per kept keypoint.
	n := 0
	for _, pt := range pts {
		if brief.InBounds(levels[pt.level], pt.kp) {
			n++
		}
	}
	out := features.NewSet(a, true, n, (pattern.Bits()+7)/8)
	for li, lvl := range levels {
		smoothed := lvl.GaussianBlurIn(a, 2)
		s := scales[li]
		for _, pt := range pts {
			if pt.level != li || !brief.InBounds(lvl, pt.kp) {
				continue
			}
			kp := pt.kp
			kp.Angle = intensityCentroidAngle(lvl, int(kp.X), int(kp.Y), p.PatchRadius)
			kp.Response = pt.harris
			kp.Octave = li
			brief.DescribeSteeredIn(smoothed, kp, pattern, out.WordRow(out.Len()))
			// Map the keypoint back to base-image coordinates.
			kp.X = float32(float64(kp.X) * s)
			kp.Y = float32(float64(kp.Y) * s)
			kp.Size = float32(31 * s)
			out.Keypoints = append(out.Keypoints, kp)
		}
	}
	return out
}

// harrisResponse computes det(M) - k tr(M)^2 over a 7x7 window of Sobel
// gradients, the ranking measure ORB substitutes for the FAST score.
func harrisResponse(gx, gy *imaging.FloatGray, x, y int) float32 {
	const k = 0.04
	var sxx, syy, sxy float64
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			ix := float64(gx.AtClamped(x+dx, y+dy))
			iy := float64(gy.AtClamped(x+dx, y+dy))
			sxx += ix * ix
			syy += iy * iy
			sxy += ix * iy
		}
	}
	det := sxx*syy - sxy*sxy
	tr := sxx + syy
	return float32(det - k*tr*tr)
}

// intensityCentroidAngle returns the orientation of the patch centroid
// relative to the corner (Rosin's moment orientation), in [0, 2pi).
func intensityCentroidAngle(g *imaging.Gray, x, y, radius int) float32 {
	var m10, m01 float64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy > radius*radius {
				continue
			}
			v := float64(g.AtClamped(x+dx, y+dy))
			m10 += float64(dx) * v
			m01 += float64(dy) * v
		}
	}
	a := math.Atan2(m01, m10)
	if a < 0 {
		a += 2 * math.Pi
	}
	return float32(a)
}
