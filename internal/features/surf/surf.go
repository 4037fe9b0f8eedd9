// Package surf implements SURF (Bay et al. 2006): a fast-Hessian
// detector built on integral-image box filters, Haar-wavelet orientation
// assignment, and the 64-dimensional descriptor of per-subregion Haar
// response sums.
package surf

import (
	"math"

	"snmatch/internal/arena"
	"snmatch/internal/features"
	"snmatch/internal/imaging"
)

// Params configures extraction. Zero values select the defaults noted on
// each field.
type Params struct {
	HessianThreshold float64 // detector response threshold (default 400)
	NOctaves         int     // octaves (default 4)
	InitSample       int     // base sampling step (default 2)
	Upright          bool    // skip orientation assignment (U-SURF)
}

func (p Params) withDefaults() Params {
	if p.HessianThreshold <= 0 {
		p.HessianThreshold = 400
	}
	if p.NOctaves <= 0 {
		p.NOctaves = 4
	}
	if p.InitSample <= 0 {
		p.InitSample = 2
	}
	return p
}

// layersPerOctave is fixed at 4 filter sizes per octave as in the paper.
const layersPerOctave = 4

// responseLayer is a sampled grid of fast-Hessian responses for one
// filter size.
type responseLayer struct {
	width, height int // grid dimensions
	step          int // pixels between grid samples
	filter        int // filter side in pixels
	responses     []float32
	laplacian     []bool
}

func (r *responseLayer) at(gx, gy int) float32 {
	if gx < 0 || gx >= r.width || gy < 0 || gy >= r.height {
		return 0
	}
	return r.responses[gy*r.width+gx]
}

// Scratch recycles SURF's per-query working set: the integral image,
// the fast-Hessian response grids and the returned set come from the
// arena, and the keypoint accumulator is a reusable spine. A nil
// *Scratch allocates freshly, exactly like Extract. One extraction may
// be in flight per Scratch between arena Resets; the returned Set is
// invalid after the Reset.
type Scratch struct {
	A *arena.Arena

	kps []surfKp
}

func (sc *Scratch) arena() *arena.Arena {
	if sc == nil {
		return nil
	}
	return sc.A
}

// Extract detects and describes SURF features on the grayscale image.
func Extract(g *imaging.Gray, params Params) *features.Set {
	return ExtractScratch(g, params, nil)
}

// ExtractScratch is Extract over a recycled extraction context; its
// output is bit-identical to Extract for every input.
func ExtractScratch(g *imaging.Gray, params Params, sc *Scratch) *features.Set {
	p := params.withDefaults()
	a := sc.arena()
	integral := imaging.NewIntegralSumIn(a, g)

	layers := buildResponseLayers(integral, g.W, g.H, p, a)
	kps := findExtrema(layers, p, sc)

	set := features.NewSet(a, false, len(kps), 64)
	for i, kp := range kps {
		angle := float32(0)
		if !p.Upright {
			angle = orientation(integral, kp)
		}
		describe(integral, kp, angle, set.FloatRow(i))
		set.Keypoints = append(set.Keypoints, features.Keypoint{
			X: kp.x, Y: kp.y, Size: kp.scale * 9.0 / 1.2,
			Angle: angle, Response: kp.response, Octave: kp.octave,
		})
	}
	return set
}

type surfKp struct {
	x, y     float32
	scale    float32 // sigma-equivalent scale (1.2 * filter/9)
	response float32
	octave   int
	sign     bool // laplacian sign
}

// hessianFilter carries the per-filter-size constants of the fast
// Hessian, hoisted out of the dense per-cell sweep.
type hessianFilter struct {
	filter   int
	lobe     int
	halfLobe int
	border   int
	inv      float64
}

func newHessianFilter(filter int) hessianFilter {
	lobe := filter / 3
	return hessianFilter{
		filter:   filter,
		lobe:     lobe,
		halfLobe: lobe / 2,
		border:   (filter - 1) / 2,
		inv:      1.0 / float64(filter*filter),
	}
}

// box is BoxSum with (row, col, rows, cols) ordering.
func box(it *imaging.Integral, row, col, rows, cols int) float64 {
	return it.BoxSum(col, row, col+cols, row+rows)
}

// hessianAt computes the normalised fast-Hessian response and Laplacian
// sign at pixel (c, r) for the given filter.
func hessianAt(it *imaging.Integral, r, c int, hf hessianFilter) (float32, bool) {
	lobe, border := hf.lobe, hf.border
	dxx := box(it, r-lobe+1, c-border, 2*lobe-1, hf.filter) -
		3*box(it, r-lobe+1, c-hf.halfLobe, 2*lobe-1, lobe)
	dyy := box(it, r-border, c-lobe+1, hf.filter, 2*lobe-1) -
		3*box(it, r-hf.halfLobe, c-lobe+1, lobe, 2*lobe-1)
	dxy := box(it, r-lobe, c+1, lobe, lobe) +
		box(it, r+1, c-lobe, lobe, lobe) -
		box(it, r-lobe, c-lobe, lobe, lobe) -
		box(it, r+1, c+1, lobe, lobe)

	dxx *= hf.inv
	dyy *= hf.inv
	dxy *= hf.inv
	resp := dxx*dyy - 0.81*dxy*dxy
	return float32(resp), dxx+dyy >= 0
}

// denseRow fills one grid row of fast-Hessian responses. The vertical
// clamps depend only on the row, so the (clamped) integral-table row
// bases are hoisted out of the column loop; every cell whose horizontal
// extent lies inside the image takes a branch-free path, and only the
// x-border cells fall back to hessianAt. Both paths evaluate the same
// lookup-and-combine expressions in the same order, so the responses
// are bit-identical to calling hessianAt everywhere.
func (hf hessianFilter) denseRow(it *imaging.Integral, r, step, gw int, resp []float32, lap []bool) {
	lobe, border := hf.lobe, hf.border
	// First and last x-clamp-free columns: every box's x range stays
	// inside [0, W] iff c-border >= 0 and c+border+1 <= W.
	cLo, cHi := border, it.W-border-1
	clampY := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > it.H {
			return it.H
		}
		return v
	}
	gx := 0
	for ; gx < gw && gx*step < cLo; gx++ {
		resp[gx], lap[gx] = hessianAt(it, r, gx*step, hf)
	}
	{
		st := it.W + 1
		sum := it.Sum
		// Clamped integral-table row bases for the five y spans.
		yA0, yA1 := clampY(r-lobe+1)*st, clampY(r+lobe)*st // dxx boxes
		yB0, yB1 := clampY(r-border)*st, clampY(r-border+hf.filter)*st
		yC0, yC1 := clampY(r-hf.halfLobe)*st, clampY(r-hf.halfLobe+lobe)*st
		yD0, yD1 := clampY(r-lobe)*st, clampY(r)*st // dxy upper boxes
		yE0, yE1 := clampY(r+1)*st, clampY(r+lobe+1)*st
		for ; gx < gw; gx++ {
			c := gx * step
			if c > cHi {
				break
			}
			x0, x1 := c-border, c+border+1
			dxx := (sum[yA1+x1] - sum[yA0+x1] - sum[yA1+x0] + sum[yA0+x0]) -
				3*(sum[yA1+c-hf.halfLobe+lobe]-sum[yA0+c-hf.halfLobe+lobe]-sum[yA1+c-hf.halfLobe]+sum[yA0+c-hf.halfLobe])
			x0, x1 = c-lobe+1, c+lobe
			dyy := (sum[yB1+x1] - sum[yB0+x1] - sum[yB1+x0] + sum[yB0+x0]) -
				3*(sum[yC1+x1]-sum[yC0+x1]-sum[yC1+x0]+sum[yC0+x0])
			dxy := (sum[yD1+c+lobe+1] - sum[yD0+c+lobe+1] - sum[yD1+c+1] + sum[yD0+c+1]) +
				(sum[yE1+c] - sum[yE0+c] - sum[yE1+c-lobe] + sum[yE0+c-lobe]) -
				(sum[yD1+c] - sum[yD0+c] - sum[yD1+c-lobe] + sum[yD0+c-lobe]) -
				(sum[yE1+c+lobe+1] - sum[yE0+c+lobe+1] - sum[yE1+c+1] + sum[yE0+c+1])
			dxx *= hf.inv
			dyy *= hf.inv
			dxy *= hf.inv
			resp[gx] = float32(dxx*dyy - 0.81*dxy*dxy)
			lap[gx] = dxx+dyy >= 0
		}
	}
	for ; gx < gw; gx++ {
		resp[gx], lap[gx] = hessianAt(it, r, gx*step, hf)
	}
}

func buildResponseLayers(it *imaging.Integral, w, h int, p Params, a *arena.Arena) [][]*responseLayer {
	out := arena.Cap[[]*responseLayer](a, p.NOctaves)
	for o := 0; o < p.NOctaves; o++ {
		step := p.InitSample << o
		gw, gh := w/step, h/step
		if gw < 3 || gh < 3 {
			break
		}
		oct := arena.Cap[*responseLayer](a, layersPerOctave)
		for i := 0; i < layersPerOctave; i++ {
			filter := 3 * ((1<<(o+1))*(i+1) + 1)
			if filter > w || filter > h {
				break
			}
			layer := arena.NewOf[responseLayer](a)
			layer.width, layer.height = gw, gh
			layer.step, layer.filter = step, filter
			layer.responses = arena.Slice[float32](a, gw*gh)
			layer.laplacian = arena.Slice[bool](a, gw*gh)
			hf := newHessianFilter(filter)
			for gy := 0; gy < gh; gy++ {
				r := gy * step
				hf.denseRow(it, r, step, gw,
					layer.responses[gy*gw:(gy+1)*gw],
					layer.laplacian[gy*gw:(gy+1)*gw])
			}
			oct = append(oct, layer)
		}
		if len(oct) >= 3 {
			out = append(out, oct)
		}
	}
	return out
}

// findExtrema runs 3x3x3 non-maximum suppression over each octave's
// middle layers and refines survivors with one Newton step.
func findExtrema(octaves [][]*responseLayer, p Params, sc *Scratch) []surfKp {
	var kps []surfKp
	if sc != nil {
		kps = sc.kps[:0]
	}
	threshold := float32(p.HessianThreshold)
	for o, oct := range octaves {
		for li := 1; li+1 < len(oct); li++ {
			b, m, t := oct[li-1], oct[li], oct[li+1]
			// The top layer's filter defines the usable border.
			borderCells := (t.filter/2)/m.step + 1
			for gy := borderCells; gy < m.height-borderCells; gy++ {
				for gx := borderCells; gx < m.width-borderCells; gx++ {
					v := m.at(gx, gy)
					if v < threshold {
						continue
					}
					if !isMaximal(b, m, t, gx, gy, v) {
						continue
					}
					kp, ok := interpolate(b, m, t, gx, gy, o)
					if ok {
						kps = append(kps, kp)
					}
				}
			}
		}
	}
	if sc != nil {
		// Save the grown spine back so the next extraction reuses it;
		// the returned slice stays valid until the arena resets.
		sc.kps = kps
	}
	return kps
}

func isMaximal(b, m, t *responseLayer, gx, gy int, v float32) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if b.at(gx+dx, gy+dy) >= v || t.at(gx+dx, gy+dy) >= v {
				return false
			}
			if (dx != 0 || dy != 0) && m.at(gx+dx, gy+dy) >= v {
				return false
			}
		}
	}
	return true
}

func interpolate(b, m, t *responseLayer, gx, gy, octave int) (surfKp, bool) {
	// Finite differences in (x, y, s) over the response grids.
	dx := 0.5 * float64(m.at(gx+1, gy)-m.at(gx-1, gy))
	dy := 0.5 * float64(m.at(gx, gy+1)-m.at(gx, gy-1))
	ds := 0.5 * float64(t.at(gx, gy)-b.at(gx, gy))
	v2 := 2 * float64(m.at(gx, gy))
	dxx := float64(m.at(gx+1, gy)+m.at(gx-1, gy)) - v2
	dyy := float64(m.at(gx, gy+1)+m.at(gx, gy-1)) - v2
	dss := float64(t.at(gx, gy)+b.at(gx, gy)) - v2
	dxy := 0.25 * float64(m.at(gx+1, gy+1)-m.at(gx-1, gy+1)-m.at(gx+1, gy-1)+m.at(gx-1, gy-1))
	dxs := 0.25 * float64(t.at(gx+1, gy)-t.at(gx-1, gy)-b.at(gx+1, gy)+b.at(gx-1, gy))
	dys := 0.25 * float64(t.at(gx, gy+1)-t.at(gx, gy-1)-b.at(gx, gy+1)+b.at(gx, gy-1))

	sx, sy, ss, ok := solve3(dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss, -dx, -dy, -ds)
	if !ok || math.Abs(sx) >= 1 || math.Abs(sy) >= 1 || math.Abs(ss) >= 1 {
		return surfKp{}, false
	}
	filterStep := float64(m.filter - b.filter)
	x := (float64(gx) + sx) * float64(m.step)
	y := (float64(gy) + sy) * float64(m.step)
	size := float64(m.filter) + ss*filterStep
	idx := gy*m.width + gx
	return surfKp{
		x: float32(x), y: float32(y),
		scale:    float32(1.2 * size / 9),
		response: m.at(gx, gy),
		octave:   octave,
		sign:     m.laplacian[idx],
	}, true
}

func solve3(a11, a12, a13, a21, a22, a23, a31, a32, a33, b1, b2, b3 float64) (x1, x2, x3 float64, ok bool) {
	m := [3][4]float64{
		{a11, a12, a13, b1},
		{a21, a22, a23, b2},
		{a31, a32, a33, b3},
	}
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return 0, 0, 0, false
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	return m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2], true
}

// haarX is the horizontal Haar wavelet response of side s at (x, y).
func haarX(it *imaging.Integral, x, y, s int) float64 {
	half := s / 2
	return it.BoxSum(x, y-half, x+half, y+half) -
		it.BoxSum(x-half, y-half, x, y+half)
}

// haarY is the vertical Haar wavelet response of side s at (x, y).
func haarY(it *imaging.Integral, x, y, s int) float64 {
	half := s / 2
	return it.BoxSum(x-half, y, x+half, y+half) -
		it.BoxSum(x-half, y-half, x+half, y)
}

// orientation assigns the dominant Haar response direction within a
// radius of 6 scales using a sliding pi/3 window.
func orientation(it *imaging.Integral, kp surfKp) float32 {
	s := int(math.Round(float64(kp.scale)))
	if s < 1 {
		s = 1
	}
	x0, y0 := int(math.Round(float64(kp.x))), int(math.Round(float64(kp.y)))
	type resp struct {
		angle, gx, gy float64
	}
	var sampleBuf [113]resp  // 113 grid points satisfy dx*dx+dy*dy < 36
	samples := sampleBuf[:0] // stack-backed: the bound is fixed by the window
	haarSize := 4 * s
	for dy := -6; dy <= 6; dy++ {
		for dx := -6; dx <= 6; dx++ {
			if dx*dx+dy*dy >= 36 {
				continue
			}
			gw := orientGauss[(dy+6)*13+(dx+6)]
			rx := gw * haarX(it, x0+dx*s, y0+dy*s, haarSize)
			ry := gw * haarY(it, x0+dx*s, y0+dy*s, haarSize)
			if rx == 0 && ry == 0 {
				continue
			}
			a := math.Atan2(ry, rx)
			if a < 0 {
				a += 2 * math.Pi
			}
			samples = append(samples, resp{angle: a, gx: rx, gy: ry})
		}
	}
	if len(samples) == 0 {
		return 0
	}
	best, bestNorm := 0.0, -1.0
	const window = math.Pi / 3
	for ang := 0.0; ang < 2*math.Pi; ang += 0.15 {
		var sx, sy float64
		for _, sm := range samples {
			// d = Mod(angle-ang+2pi, 2pi) via conditional subtraction:
			// for 2pi <= d < 2*2pi the subtraction is exact (Sterbenz),
			// so this matches math.Mod bit for bit on this range.
			d := sm.angle - ang + 2*math.Pi
			for d >= 2*math.Pi {
				d -= 2 * math.Pi
			}
			if d < window {
				sx += sm.gx
				sy += sm.gy
			}
		}
		if n := sx*sx + sy*sy; n > bestNorm {
			bestNorm = n
			best = math.Atan2(sy, sx)
		}
	}
	if best < 0 {
		best += 2 * math.Pi
	}
	return float32(best)
}

func gauss2d(x, y, sigma float64) float64 {
	return math.Exp(-(x*x + y*y) / (2 * sigma * sigma))
}

// orientGauss caches gauss2d(dx, dy, 2.5) for the 13x13 orientation
// window — the weights depend only on the integer offsets, so the table
// holds exactly the values the per-keypoint calls produced.
var orientGauss = func() []float64 {
	t := make([]float64, 13*13)
	for dy := -6; dy <= 6; dy++ {
		for dx := -6; dx <= 6; dx++ {
			t[(dy+6)*13+(dx+6)] = gauss2d(float64(dx), float64(dy), 2.5)
		}
	}
	return t
}()

// describe writes the 64-d SURF descriptor into desc, a row of the
// set's matrix: 4x4 subregions of a 20s window, each summarising 5x5
// Haar samples as [sum dx, sum |dx|, sum dy, sum |dy|] in the
// keypoint's rotated frame.
func describe(it *imaging.Integral, kp surfKp, angle float32, desc []float32) {
	s := float64(kp.scale)
	if s < 1 {
		s = 1
	}
	cosA := math.Cos(float64(angle))
	sinA := math.Sin(float64(angle))
	haarSize := 2 * int(math.Round(s))
	if haarSize < 2 {
		haarSize = 2
	}

	k := 0
	for sr := -2; sr < 2; sr++ { // subregion rows
		for sc := -2; sc < 2; sc++ {
			var sumDx, sumDy, sumAx, sumAy float64
			for iy := 0; iy < 5; iy++ {
				for ix := 0; ix < 5; ix++ {
					// Sample position in the keypoint frame (units of s).
					u := (float64(sc*5+ix) + 0.5) * s
					v := (float64(sr*5+iy) + 0.5) * s
					// Rotate into image coordinates.
					px := int(math.Round(float64(kp.x) + u*cosA - v*sinA))
					py := int(math.Round(float64(kp.y) + u*sinA + v*cosA))
					rx := haarX(it, px, py, haarSize)
					ry := haarY(it, px, py, haarSize)
					// Rotate responses back into the keypoint frame.
					tdx := rx*cosA + ry*sinA
					tdy := -rx*sinA + ry*cosA
					gw := gauss2d(u/s, v/s, 3.3)
					tdx *= gw
					tdy *= gw
					sumDx += tdx
					sumDy += tdy
					sumAx += math.Abs(tdx)
					sumAy += math.Abs(tdy)
				}
			}
			desc[k] = float32(sumDx)
			desc[k+1] = float32(sumAx)
			desc[k+2] = float32(sumDy)
			desc[k+3] = float32(sumAy)
			k += 4
		}
	}
	// Normalise to unit length for illumination invariance.
	var norm float64
	for _, v := range desc {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)
	if norm > 1e-12 {
		for i := range desc {
			desc[i] = float32(float64(desc[i]) / norm)
		}
	}
}
