// Package sift implements the SIFT detector and descriptor of Lowe
// (2004): a Gaussian scale space, difference-of-Gaussian extrema with
// subpixel refinement, contrast and edge rejection, gradient orientation
// assignment, and the 4x4x8 = 128-dimensional descriptor with trilinear
// binning, normalisation and the 0.2 clamp.
package sift

import (
	"math"

	"snmatch/internal/arena"
	"snmatch/internal/features"
	"snmatch/internal/imaging"
	"snmatch/internal/simd"
)

// Params configures extraction. Zero values select the defaults noted on
// each field.
type Params struct {
	NOctaveLayers     int     // scales per octave (default 3)
	ContrastThreshold float64 // DoG contrast rejection (default 0.04)
	EdgeThreshold     float64 // principal curvature ratio limit (default 10)
	Sigma             float64 // base blur (default 1.6)
	NoDoubleImage     bool    // skip the initial 2x upsampling
	MaxFeatures       int     // keep the strongest N (0 = all)
}

func (p Params) withDefaults() Params {
	if p.NOctaveLayers <= 0 {
		p.NOctaveLayers = 3
	}
	if p.ContrastThreshold <= 0 {
		p.ContrastThreshold = 0.04
	}
	if p.EdgeThreshold <= 0 {
		p.EdgeThreshold = 10
	}
	if p.Sigma <= 0 {
		p.Sigma = 1.6
	}
	return p
}

const (
	descWidth      = 4 // d: spatial bins per side
	descBins       = 8 // n: orientation bins per spatial bin
	orientBins     = 36
	orientSigmaFac = 1.5
	orientRadius   = 3 * orientSigmaFac
	peakRatio      = 0.8
	descSclFactor  = 3.0
	descMagThresh  = 0.2
	maxInterpSteps = 5
	imgBorder      = 5
)

// Scratch recycles SIFT's per-query working set: every raster of the
// Gaussian and DoG pyramids, the convolution scratch and the returned
// set come from the arena, and the candidate-keypoint accumulator and
// the gradient row buffers are reusable spines that grow to the
// workload's steady-state size once. A nil *Scratch allocates freshly,
// exactly like Extract. One extraction may be in flight per Scratch
// between arena Resets; the returned Set is invalid after the Reset.
type Scratch struct {
	A *arena.Arena

	kps  []internalKp
	grad gradRow
}

// gradRow holds one image row's gradient samples, gathered for one
// simd.GradientSamples call and then scattered into a histogram in the
// same order: the kernel's inputs gx, gy and arg (the Gaussian
// weight's exponent), its outputs mag, ori and wgt, and each
// descriptor sample's cell coordinates rBin and cBin.
type gradRow struct {
	gx, gy, arg, mag, ori, wgt, rBin, cBin []float64
}

// reserve sizes every buffer for rows of up to w samples.
func (g *gradRow) reserve(w int) {
	if cap(g.gx) >= w {
		return
	}
	buf := make([]float64, 8*w)
	next := func() []float64 {
		s := buf[:w:w]
		buf = buf[w:]
		return s
	}
	g.gx, g.gy, g.arg, g.mag, g.ori, g.wgt, g.rBin, g.cBin = next(), next(), next(), next(), next(), next(), next(), next()
}

// set stores sample i: the central-difference gradient at column x of
// row, whose neighbour rows are up and down, and the exponent arg.
func (g *gradRow) set(i int, up, row, down []float32, x int, arg float64) {
	g.gx[i] = float64(row[x+1] - row[x-1])
	g.gy[i] = float64(down[x] - up[x])
	g.arg[i] = arg
}

// run fills mag = Hypot(gx, gy), ori = Atan2(gy, gx) and wgt =
// Exp(arg) for the first n samples.
func (g *gradRow) run(n int) {
	simd.GradientSamples(g.mag[:n], g.ori[:n], g.wgt[:n], g.gx[:n], g.gy[:n], g.arg[:n])
}

// rows3 returns row y of img and its neighbour rows y-1 and y+1.
func rows3(img *imaging.FloatGray, y int) (up, row, down []float32) {
	w := img.W
	return img.Pix[(y-1)*w : y*w], img.Pix[y*w : (y+1)*w], img.Pix[(y+1)*w : (y+2)*w]
}

// Extract detects SIFT keypoints and computes their descriptors.
func Extract(g *imaging.Gray, params Params) *features.Set {
	return ExtractScratch(g, params, nil)
}

// ExtractScratch is Extract over a recycled extraction context; its
// output is bit-identical to Extract for every input.
func ExtractScratch(g *imaging.Gray, params Params, sc *Scratch) *features.Set {
	if sc == nil {
		sc = new(Scratch)
	}
	p := params.withDefaults()
	a := sc.A

	base := initialImage(g, !p.NoDoubleImage, p.Sigma, a)
	sc.grad.reserve(base.W) // no octave is wider than its base
	minDim := base.W
	if base.H < minDim {
		minDim = base.H
	}
	nOctaves := int(math.Round(math.Log2(float64(minDim)))) - 2
	if nOctaves < 1 {
		nOctaves = 1
	}

	gauss := buildGaussianPyramid(base, nOctaves, p.NOctaveLayers, p.Sigma, a)
	dog := buildDoGPyramid(gauss, a)

	kps := findScaleSpaceExtrema(gauss, dog, p, sc)
	if p.MaxFeatures > 0 && len(kps) > p.MaxFeatures {
		sortByResponse(kps)
		kps = kps[:p.MaxFeatures]
	}

	set := features.NewSet(a, false, len(kps), descWidth*descWidth*descBins)
	firstOctaveScale := float32(1.0)
	if !p.NoDoubleImage {
		firstOctaveScale = 0.5
	}
	for i, k := range kps {
		computeDescriptor(gauss, k, set.FloatRow(i), &sc.grad)
		kp := features.Keypoint{
			X:        k.x * float32(math.Pow(2, float64(k.octave))) * firstOctaveScale,
			Y:        k.y * float32(math.Pow(2, float64(k.octave))) * firstOctaveScale,
			Size:     k.size * firstOctaveScale,
			Angle:    k.angle,
			Response: k.response,
			Octave:   k.octave,
		}
		set.Keypoints = append(set.Keypoints, kp)
	}
	return set
}

// internalKp is a keypoint in octave coordinates before remapping.
type internalKp struct {
	x, y     float32 // coordinates at the octave's sampling
	octave   int
	layer    int
	sclOctv  float32 // scale relative to the octave
	size     float32 // absolute size at octave 0 sampling
	angle    float32
	response float32
}

func sortByResponse(kps []internalKp) {
	// Insertion sort keeps this dependency-free; keypoint counts are small.
	for i := 1; i < len(kps); i++ {
		k := kps[i]
		j := i - 1
		for j >= 0 && kps[j].response < k.response {
			kps[j+1] = kps[j]
			j--
		}
		kps[j+1] = k
	}
}

// initialImage converts to float in [0, 1], optionally doubles the size,
// and applies the base blur assuming the camera already blurred the input
// with sigma 0.5.
func initialImage(g *imaging.Gray, double bool, sigma float64, a *arena.Arena) *imaging.FloatGray {
	f := imaging.NewFloatGrayIn(a, g.W, g.H)
	for i, v := range g.Pix {
		f.Pix[i] = float32(v) / 255
	}
	const cameraSigma = 0.5
	if double {
		f = f.ResizeBilinearIn(a, g.W*2, g.H*2)
		diff := math.Sqrt(math.Max(sigma*sigma-4*cameraSigma*cameraSigma, 0.01))
		return f.GaussianBlurIn(a, diff)
	}
	diff := math.Sqrt(math.Max(sigma*sigma-cameraSigma*cameraSigma, 0.01))
	return f.GaussianBlurIn(a, diff)
}

func buildGaussianPyramid(base *imaging.FloatGray, nOctaves, nLayers int, sigma float64, a *arena.Arena) [][]*imaging.FloatGray {
	perOct := nLayers + 3
	// Incremental sigmas between consecutive layers.
	sig := arena.Slice[float64](a, perOct)
	sig[0] = sigma
	k := math.Pow(2, 1/float64(nLayers))
	for i := 1; i < perOct; i++ {
		sigPrev := sigma * math.Pow(k, float64(i-1))
		sigTotal := sigPrev * k
		sig[i] = math.Sqrt(sigTotal*sigTotal - sigPrev*sigPrev)
	}
	pyr := arena.Slice[[]*imaging.FloatGray](a, nOctaves)
	for o := 0; o < nOctaves; o++ {
		pyr[o] = arena.Slice[*imaging.FloatGray](a, perOct)
		if o == 0 {
			pyr[o][0] = base
		} else {
			// Start from the layer with twice the base sigma of the
			// previous octave, downsampled by two.
			pyr[o][0] = pyr[o-1][nLayers].Downsample2In(a)
		}
		for i := 1; i < perOct; i++ {
			pyr[o][i] = pyr[o][i-1].GaussianBlurIn(a, sig[i])
		}
	}
	return pyr
}

func buildDoGPyramid(gauss [][]*imaging.FloatGray, a *arena.Arena) [][]*imaging.FloatGray {
	dog := arena.Slice[[]*imaging.FloatGray](a, len(gauss))
	for o := range gauss {
		dog[o] = arena.Slice[*imaging.FloatGray](a, len(gauss[o])-1)
		for i := 0; i+1 < len(gauss[o]); i++ {
			dog[o][i] = gauss[o][i+1].SubtractIn(a, gauss[o][i])
		}
	}
	return dog
}

func findScaleSpaceExtrema(gauss, dog [][]*imaging.FloatGray, p Params, sc *Scratch) []internalKp {
	nLayers := p.NOctaveLayers
	threshold := float32(0.5 * p.ContrastThreshold / float64(nLayers))
	kps := sc.kps[:0]
	for o := range dog {
		for layer := 1; layer <= nLayers; layer++ {
			prev, cur, next := dog[o][layer-1], dog[o][layer], dog[o][layer+1]
			w, h := cur.W, cur.H
			for y := imgBorder; y < h-imgBorder; y++ {
				row := cur.Pix[y*w : (y+1)*w]
				for x := imgBorder; x < w-imgBorder; x++ {
					v := row[x]
					if absf(v) <= threshold {
						continue
					}
					if !isExtremum(prev, cur, next, x, y, v) {
						continue
					}
					kp, ok := adjustLocalExtremum(dog[o], o, layer, x, y, p)
					if !ok {
						continue
					}
					// Orientation assignment may split the keypoint.
					kps = appendOrientations(kps, gauss[o], kp, &sc.grad)
				}
			}
		}
	}
	// Save the grown spine back so the next extraction reuses it; the
	// returned slice stays valid until the arena resets.
	sc.kps = kps
	return kps
}

// isExtremum reports whether v, the value at (x, y) of cur, is an
// extremum of its 3x3x3 neighbourhood: for v > 0 no neighbour in prev,
// cur or next exceeds it, otherwise none falls below it. Each raster's
// three rows are one Pix slice from (x-1, y-1) to (x+1, y+1). cur's
// ring goes first, its own row first, because most candidates fail
// there; the order of the comparisons cannot change the result.
func isExtremum(prev, cur, next *imaging.FloatGray, x, y int, v float32) bool {
	w := cur.W
	i := y*w + x
	c := cur.Pix[i-w-1 : i+w+2]
	if v > 0 {
		if c[w] > v || c[w+2] > v || c[0] > v || c[1] > v || c[2] > v || c[2*w] > v || c[2*w+1] > v || c[2*w+2] > v {
			return false
		}
		for _, img := range [2]*imaging.FloatGray{prev, next} {
			q := img.Pix[i-w-1 : i+w+2]
			if q[w+1] > v || q[w] > v || q[w+2] > v || q[0] > v || q[1] > v || q[2] > v || q[2*w] > v || q[2*w+1] > v || q[2*w+2] > v {
				return false
			}
		}
		return true
	}
	if c[w] < v || c[w+2] < v || c[0] < v || c[1] < v || c[2] < v || c[2*w] < v || c[2*w+1] < v || c[2*w+2] < v {
		return false
	}
	for _, img := range [2]*imaging.FloatGray{prev, next} {
		q := img.Pix[i-w-1 : i+w+2]
		if q[w+1] < v || q[w] < v || q[w+2] < v || q[0] < v || q[1] < v || q[2] < v || q[2*w] < v || q[2*w+1] < v || q[2*w+2] < v {
			return false
		}
	}
	return true
}

// adjustLocalExtremum refines the extremum location with up to five
// Newton iterations over (x, y, scale) and applies the contrast and edge
// rejection tests.
func adjustLocalExtremum(dogOct []*imaging.FloatGray, octave, layer, x, y int, p Params) (internalKp, bool) {
	nLayers := p.NOctaveLayers
	var xi, xr, xc float64
	var contr float64
	i := 0
	for ; i < maxInterpSteps; i++ {
		prev, cur, next := dogOct[layer-1], dogOct[layer], dogOct[layer+1]
		// Gradient.
		dx := 0.5 * float64(cur.At(x+1, y)-cur.At(x-1, y))
		dy := 0.5 * float64(cur.At(x, y+1)-cur.At(x, y-1))
		ds := 0.5 * float64(next.At(x, y)-prev.At(x, y))
		// Hessian.
		v2 := 2 * float64(cur.At(x, y))
		dxx := float64(cur.At(x+1, y)+cur.At(x-1, y)) - v2
		dyy := float64(cur.At(x, y+1)+cur.At(x, y-1)) - v2
		dss := float64(next.At(x, y)+prev.At(x, y)) - v2
		dxy := 0.25 * float64(cur.At(x+1, y+1)-cur.At(x-1, y+1)-cur.At(x+1, y-1)+cur.At(x-1, y-1))
		dxs := 0.25 * float64(next.At(x+1, y)-next.At(x-1, y)-prev.At(x+1, y)+prev.At(x-1, y))
		dys := 0.25 * float64(next.At(x, y+1)-next.At(x, y-1)-prev.At(x, y+1)+prev.At(x, y-1))

		sx, sy, ss, ok := solve3(dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss, -dx, -dy, -ds)
		if !ok {
			return internalKp{}, false
		}
		xc, xr, xi = sx, sy, ss
		if math.Abs(xc) < 0.5 && math.Abs(xr) < 0.5 && math.Abs(xi) < 0.5 {
			contr = float64(cur.At(x, y)) + 0.5*(dx*xc+dy*xr+ds*xi)
			break
		}
		x += int(math.Round(xc))
		y += int(math.Round(xr))
		layer += int(math.Round(xi))
		if layer < 1 || layer > nLayers ||
			x < imgBorder || x >= cur.W-imgBorder ||
			y < imgBorder || y >= cur.H-imgBorder {
			return internalKp{}, false
		}
	}
	if i >= maxInterpSteps {
		return internalKp{}, false
	}
	if math.Abs(contr)*float64(nLayers) < p.ContrastThreshold {
		return internalKp{}, false
	}
	// Edge rejection on the 2x2 spatial Hessian.
	cur := dogOct[layer]
	v2 := 2 * float64(cur.At(x, y))
	dxx := float64(cur.At(x+1, y)+cur.At(x-1, y)) - v2
	dyy := float64(cur.At(x, y+1)+cur.At(x, y-1)) - v2
	dxy := 0.25 * float64(cur.At(x+1, y+1)-cur.At(x-1, y+1)-cur.At(x+1, y-1)+cur.At(x-1, y-1))
	tr := dxx + dyy
	det := dxx*dyy - dxy*dxy
	e := p.EdgeThreshold
	if det <= 0 || tr*tr*e >= (e+1)*(e+1)*det {
		return internalKp{}, false
	}

	sclOctv := float32(p.Sigma * math.Pow(2, (float64(layer)+xi)/float64(nLayers)))
	return internalKp{
		x:        float32(float64(x) + xc),
		y:        float32(float64(y) + xr),
		octave:   octave,
		layer:    layer,
		sclOctv:  sclOctv,
		size:     sclOctv * float32(math.Pow(2, float64(octave))) * 2,
		response: float32(math.Abs(contr)),
	}, true
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting. Returns ok=false for singular systems.
func solve3(a11, a12, a13, a21, a22, a23, a31, a32, a33, b1, b2, b3 float64) (x1, x2, x3 float64, ok bool) {
	m := [3][4]float64{
		{a11, a12, a13, b1},
		{a21, a22, a23, b2},
		{a31, a32, a33, b3},
	}
	for col := 0; col < 3; col++ {
		// Pivot.
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

// appendOrientations builds the 36-bin gradient histogram around the
// keypoint and appends one keypoint per dominant peak (>= 80% of max)
// to dst — the append-into-caller form that keeps the hot extrema sweep
// free of per-candidate slice allocations. Each row of the square
// window, clipped to the image, is one gradient-kernel call on g.
func appendOrientations(dst []internalKp, gaussOct []*imaging.FloatGray, kp internalKp, g *gradRow) []internalKp {
	img := gaussOct[kp.layer]
	radius := int(math.Round(float64(orientRadius) * float64(kp.sclOctv)))
	if radius < 1 {
		radius = 1
	}
	sigma := orientSigmaFac * float64(kp.sclOctv)
	expDenom := 2 * sigma * sigma
	x0, y0 := int(math.Round(float64(kp.x))), int(math.Round(float64(kp.y)))
	lo, hi := max(-radius, 1-x0), min(radius, img.W-2-x0)

	var hist [orientBins]float64
	for dy := -radius; dy <= radius; dy++ {
		y := y0 + dy
		if y <= 0 || y >= img.H-1 {
			continue
		}
		up, row, down := rows3(img, y)
		ns := 0
		for dx := lo; dx <= hi; dx++ {
			g.set(ns, up, row, down, x0+dx, -(float64(dx*dx)+float64(dy*dy))/expDenom)
			ns++
		}
		g.run(ns)
		for i, ori := range g.ori[:ns] {
			bin := int(math.Round(float64(orientBins) * (ori + math.Pi) / (2 * math.Pi)))
			bin = ((bin % orientBins) + orientBins) % orientBins
			hist[bin] += g.wgt[i] * g.mag[i]
		}
	}
	// Circular smoothing with the [1 4 6 4 1]/16 kernel.
	var smooth [orientBins]float64
	for i := 0; i < orientBins; i++ {
		smooth[i] = (hist[(i-2+orientBins)%orientBins]+hist[(i+2)%orientBins])*(1.0/16) +
			(hist[(i-1+orientBins)%orientBins]+hist[(i+1)%orientBins])*(4.0/16) +
			hist[i]*(6.0/16)
	}
	maxV := 0.0
	for _, v := range smooth {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		kp.angle = 0
		return append(dst, kp)
	}
	thresholdV := peakRatio * maxV
	appended := false
	for i := 0; i < orientBins; i++ {
		l := (i - 1 + orientBins) % orientBins
		r := (i + 1) % orientBins
		if smooth[i] <= smooth[l] || smooth[i] <= smooth[r] || smooth[i] < thresholdV {
			continue
		}
		// Parabolic interpolation of the peak bin.
		bin := float64(i) + 0.5*(smooth[l]-smooth[r])/(smooth[l]-2*smooth[i]+smooth[r])
		bin = math.Mod(bin+float64(orientBins), float64(orientBins))
		angle := bin*(2*math.Pi/float64(orientBins)) - math.Pi
		if angle < 0 {
			angle += 2 * math.Pi
		}
		k2 := kp
		k2.angle = float32(angle)
		dst = append(dst, k2)
		appended = true
	}
	if !appended {
		kp.angle = 0
		dst = append(dst, kp)
	}
	return dst
}

// histIdx flattens the (row, col, orientation) coordinates of the
// descriptor histogram, whose guard-binned extent is fixed by the
// descWidth/descBins constants.
func histIdx(r, c, o int) int { return (r*(descWidth+2)+c)*(descBins+2) + o }

// computeDescriptor writes the 128-d descriptor for the keypoint, from
// its octave's Gaussian image, into desc, a row of the set's matrix.
// The histogram is a stack array (its extent is a compile-time
// constant), so a warm context computes descriptors without heap work.
//
// Each row of the window visits only the dx that windowSpan leaves,
// gathers the samples that pass the exact window test into g, runs the
// gradient kernel once, and scatters them in dx order.
func computeDescriptor(gauss [][]*imaging.FloatGray, kp internalKp, desc []float32, g *gradRow) {
	img := gauss[kp.octave][kp.layer]
	d, n := descWidth, descBins
	histWidth := descSclFactor * float64(kp.sclOctv)
	radius := int(math.Round(histWidth * math.Sqrt2 * (float64(d) + 1) * 0.5))
	// Clip the radius to the image diagonal.
	if maxR := int(math.Hypot(float64(img.W), float64(img.H))); radius > maxR {
		radius = maxR
	}
	cosA := math.Cos(float64(kp.angle))
	sinA := math.Sin(float64(kp.angle))
	binsPerRad := float64(n) / (2 * math.Pi)
	expDenom := float64(d) * float64(d) * 0.5
	x0, y0 := int(math.Round(float64(kp.x))), int(math.Round(float64(kp.y)))

	// Histogram with guard bins for trilinear interpolation.
	var hist [(descWidth + 2) * (descWidth + 2) * (descBins + 2)]float64

	// A sample passes the window test only if both rotated coordinates
	// lie within d/2+1/2 cells of the centre. lim is that bound in
	// pixels, widened by a relative 1e-9, far above the rounding of the
	// test's float64 expressions.
	lim := (float64(d)/2 + 0.5) * histWidth * (1 + 1e-9)
	for dy := -radius; dy <= radius; dy++ {
		y := y0 + dy
		if y <= 0 || y >= img.H-1 {
			continue
		}
		lo, hi := stripSpan(max(-radius, 1-x0), min(radius, img.W-2-x0), cosA, sinA*float64(dy), lim)
		lo, hi = stripSpan(lo, hi, -sinA, cosA*float64(dy), lim)
		up, row, down := rows3(img, y)
		ns := 0
		for dx := lo; dx <= hi; dx++ {
			// Rotated coordinates normalised to histogram cells.
			rotX := (cosA*float64(dx) + sinA*float64(dy)) / histWidth
			rotY := (-sinA*float64(dx) + cosA*float64(dy)) / histWidth
			rBin := rotY + float64(d)/2 - 0.5
			cBin := rotX + float64(d)/2 - 0.5
			if rBin <= -1 || rBin >= float64(d) || cBin <= -1 || cBin >= float64(d) {
				continue
			}
			g.set(ns, up, row, down, x0+dx, -(rotX*rotX+rotY*rotY)/expDenom)
			g.rBin[ns], g.cBin[ns] = rBin, cBin
			ns++
		}
		g.run(ns)
		for i, mag := range g.mag[:ns] {
			ori := g.ori[i] - float64(kp.angle)
			for ori < 0 {
				ori += 2 * math.Pi
			}
			for ori >= 2*math.Pi {
				ori -= 2 * math.Pi
			}
			oBin := ori * binsPerRad
			v := mag * g.wgt[i]
			rBin, cBin := g.rBin[i], g.cBin[i]

			r0 := int(math.Floor(rBin))
			c0 := int(math.Floor(cBin))
			o0 := int(math.Floor(oBin))
			rb := rBin - float64(r0)
			cb := cBin - float64(c0)
			ob := oBin - float64(o0)

			// Trilinear distribution into 8 cells, each taking
			// v*rw*cw*ow. The window test keeps rBin and cBin in (-1, d)
			// and ori is in [0, 2π), so every cell lies inside the
			// guard-binned histogram.
			oLo, oHi := o0%n, (o0+1)%n
			for ri, rw := range [2]float64{1 - rb, rb} {
				for ci, cw := range [2]float64{1 - cb, cb} {
					cell := hist[histIdx(r0+ri+1, c0+ci+1, 0):][:n]
					vrc := v * rw * cw
					cell[oLo] += vrc * (1 - ob)
					cell[oHi] += vrc * ob
				}
			}
		}
	}

	// Collapse the guard bins into the d*d*n vector.
	k := 0
	for r := 1; r <= d; r++ {
		for c := 1; c <= d; c++ {
			for o := 0; o < n; o++ {
				desc[k] = float32(hist[histIdx(r, c, o)])
				k++
			}
		}
	}
	normalizeDescriptor(desc)
}

// stripSpan narrows the dx range [lo, hi] of one window row to a
// superset of the dx with |a*dx + b| < lim, where a*dx + b is one
// rotated coordinate in pixels. Each bound rounds outward. Below a
// slope of 1e-6 the coordinate hardly moves along the row, and
// dividing by a would magnify b's rounding, so the range is kept whole
// or, when even its nearest point lies outside, dropped.
func stripSpan(lo, hi int, a, b, lim float64) (int, int) {
	const flat = 1e-6
	if math.Abs(a) < flat {
		if math.Abs(b)-flat*float64(max(-lo, hi)) >= lim {
			return 0, -1
		}
		return lo, hi
	}
	t0, t1 := (-lim-b)/a, (lim-b)/a
	if a < 0 {
		t0, t1 = t1, t0
	}
	if t0 > float64(lo) {
		lo = int(math.Floor(t0))
	}
	if t1 < float64(hi) {
		hi = int(math.Ceil(t1))
	}
	return lo, hi
}

// normalizeDescriptor applies Lowe's normalise -> clamp at 0.2 ->
// renormalise scheme in place.
func normalizeDescriptor(desc []float32) {
	var norm float64
	for _, v := range desc {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return
	}
	for i := range desc {
		desc[i] = float32(math.Min(float64(desc[i])/norm, descMagThresh))
	}
	norm = 0
	for _, v := range desc {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return
	}
	for i := range desc {
		desc[i] = float32(float64(desc[i]) / norm)
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
