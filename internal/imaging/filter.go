package imaging

import (
	"math"

	"snmatch/internal/arena"
	"snmatch/internal/simd"
)

// GaussianKernel returns a normalised 1-D Gaussian kernel for the given
// sigma. The radius defaults to ceil(3*sigma) when radius <= 0.
func GaussianKernel(sigma float64, radius int) []float32 {
	return GaussianKernelIn(nil, sigma, radius)
}

// GaussianKernelIn is GaussianKernel with the kernel drawn from the
// arena; the weights are recomputed either way, so pooled kernels are
// bit-identical to fresh ones.
func GaussianKernelIn(a *arena.Arena, sigma float64, radius int) []float32 {
	if sigma <= 0 {
		k := arena.Slice[float32](a, 1)
		k[0] = 1
		return k
	}
	if radius <= 0 {
		radius = int(math.Ceil(3 * sigma))
		if radius < 1 {
			radius = 1
		}
	}
	k := arena.Slice[float32](a, 2*radius+1)
	sum := 0.0
	inv := 1 / (2 * sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) * inv)
		k[i+radius] = float32(v)
		sum += v
	}
	for i := range k {
		k[i] = float32(float64(k[i]) / sum)
	}
	return k
}

// ConvolveSeparable applies the 1-D kernel horizontally then vertically
// with replicate border handling, returning a new raster. The two
// passes are fused through a ring buffer of horizontally-convolved
// rows, so the full intermediate raster is never materialised; every
// pixel sums the same products in the same (ascending kernel) order as
// a per-tap clamped horizontal pass followed by a vertical one, so the
// output is bit-identical to that composition.
func (f *FloatGray) ConvolveSeparable(kernel []float32) *FloatGray {
	return f.ConvolveSeparableIn(nil, kernel)
}

// ConvolveSeparableIn is ConvolveSeparable with the output raster and
// the fused-pass scratch (padded row and its tap windows, ring buffer,
// source-row table) drawn from the arena. The output, the padded row
// and the ring are unzeroed loans: each element is written before it
// is read.
//
// Both passes are simd.AccumRows calls. The horizontal pass copies
// each source row into pad with replicated edge values, so pad[x+i]
// holds row[clamp(x+i-r)], and sums the windows taps[i] = pad[i:i+w]:
// the clamped tap loop with no border case. The vertical pass sums one
// ring row per tap.
func (f *FloatGray) ConvolveSeparableIn(a *arena.Arena, kernel []float32) *FloatGray {
	r := len(kernel) / 2
	k := len(kernel)
	w, h := f.W, f.H
	out := newFloatGrayHeaderIn(a, w, h)
	out.Pix = arena.Unzeroed(a, w*h)
	pad := arena.Unzeroed(a, w+k-1)
	taps := arena.Slice[[]float32](a, k)
	for i := range taps {
		taps[i] = pad[i : i+w]
	}
	// ring holds the last k horizontally-convolved rows; row j lives at
	// slot j%k, and the window [y-r, y+r] never exceeds k rows. srcs[i]
	// is the ring row of source row clamp(y+i-r): each output row
	// shifts the window by one row and appends the newest.
	ring := arena.Unzeroed(a, k*w)
	srcs := arena.Slice[[]float32](a, k)
	computed, slot := -1, 0
	var newest []float32
	for y := 0; y < h; y++ {
		// The window's last tap reads row y+(k-1)-r (== y+r for odd
		// kernels); using k-1-r keeps even-length kernels from
		// computing an extra row whose ring slot would collide with
		// the window's first row.
		need := min(y+(k-1-r), h-1)
		for computed < need {
			computed++
			newest = ring[slot*w : slot*w+w]
			padRow(pad, f.Pix[computed*w:(computed+1)*w], r)
			simd.AccumRows(newest, taps, kernel)
			if slot++; slot == k {
				slot = 0
			}
		}
		if y == 0 {
			for i := range srcs {
				sy := min(max(i-r, 0), h-1) // below k, so in slot sy
				srcs[i] = ring[sy*w : sy*w+w]
			}
		} else {
			copy(srcs, srcs[1:])
			srcs[k-1] = newest
		}
		simd.AccumRows(out.Pix[y*w:(y+1)*w], srcs, kernel)
	}
	return out
}

// padRow copies row into pad behind r replicas of its first value and
// fills the rest of pad with its last value: pad[j] = row[clamp(j-r)].
func padRow(pad, row []float32, r int) {
	for j := range pad[:r] {
		pad[j] = row[0]
	}
	copy(pad[r:], row)
	last := row[len(row)-1]
	for j := r + len(row); j < len(pad); j++ {
		pad[j] = last
	}
}

// GaussianBlur returns f blurred with an isotropic Gaussian of the given
// sigma. Sigma <= 0 returns a copy.
func (f *FloatGray) GaussianBlur(sigma float64) *FloatGray { return f.GaussianBlurIn(nil, sigma) }

// GaussianBlurIn is GaussianBlur with every intermediate (kernel,
// fused-pass scratch, output raster) drawn from the arena.
func (f *FloatGray) GaussianBlurIn(a *arena.Arena, sigma float64) *FloatGray {
	if sigma <= 0 {
		out := NewFloatGrayIn(a, f.W, f.H)
		copy(out.Pix, f.Pix)
		return out
	}
	return f.ConvolveSeparableIn(a, GaussianKernelIn(a, sigma, 0))
}

// GaussianBlur returns g blurred with an isotropic Gaussian.
func (g *Gray) GaussianBlur(sigma float64) *Gray { return g.GaussianBlurIn(nil, sigma) }

// GaussianBlurIn is GaussianBlur with the float round-trip and result
// drawn from the arena.
func (g *Gray) GaussianBlurIn(a *arena.Arena, sigma float64) *Gray {
	if sigma <= 0 {
		out := NewGrayIn(a, g.W, g.H)
		copy(out.Pix, g.Pix)
		return out
	}
	return g.ToFloatIn(a).GaussianBlurIn(a, sigma).ToGrayIn(a)
}

// GaussianBlur blurs each RGB channel independently.
func (m *Image) GaussianBlur(sigma float64) *Image {
	if sigma <= 0 {
		return m.Clone()
	}
	kernel := GaussianKernel(sigma, 0)
	chans := [3]*FloatGray{}
	for c := 0; c < 3; c++ {
		f := NewFloatGray(m.W, m.H)
		for p, i := 0, c; p < len(f.Pix); p, i = p+1, i+3 {
			f.Pix[p] = float32(m.Pix[i])
		}
		chans[c] = f.ConvolveSeparable(kernel)
	}
	out := NewImage(m.W, m.H)
	for p := 0; p < m.W*m.H; p++ {
		out.Pix[p*3] = clamp8(float64(chans[0].Pix[p]))
		out.Pix[p*3+1] = clamp8(float64(chans[1].Pix[p]))
		out.Pix[p*3+2] = clamp8(float64(chans[2].Pix[p]))
	}
	return out
}

// Sobel computes horizontal and vertical derivative rasters using the
// standard 3x3 Sobel operators. Interior pixels index the three source
// rows directly (the border ring keeps the clamped path); the derivative
// expressions are identical in both paths, so the output matches the
// fully clamped loop bit for bit.
func (f *FloatGray) Sobel() (gx, gy *FloatGray) { return f.SobelIn(nil) }

// SobelIn is Sobel with both derivative rasters drawn from the arena.
func (f *FloatGray) SobelIn(a *arena.Arena) (gx, gy *FloatGray) {
	gx = NewFloatGrayIn(a, f.W, f.H)
	gy = NewFloatGrayIn(a, f.W, f.H)
	w, h := f.W, f.H
	for y := 0; y < h; y++ {
		if y > 0 && y < h-1 && w > 2 {
			up := f.Pix[(y-1)*w : y*w]
			mid := f.Pix[y*w : (y+1)*w]
			dn := f.Pix[(y+1)*w : (y+2)*w]
			gxRow := gx.Pix[y*w : (y+1)*w]
			gyRow := gy.Pix[y*w : (y+1)*w]
			for x := 1; x < w-1; x++ {
				p00, p10, p20 := up[x-1], up[x], up[x+1]
				p01, p21 := mid[x-1], mid[x+1]
				p02, p12, p22 := dn[x-1], dn[x], dn[x+1]
				gxRow[x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
				gyRow[x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
			}
			sobelClamped(f, gx, gy, 0, y)
			sobelClamped(f, gx, gy, w-1, y)
			continue
		}
		for x := 0; x < w; x++ {
			sobelClamped(f, gx, gy, x, y)
		}
	}
	return gx, gy
}

// sobelClamped evaluates both Sobel operators at one (possibly border)
// pixel with replicate clamping.
func sobelClamped(f, gx, gy *FloatGray, x, y int) {
	p00 := f.AtClamped(x-1, y-1)
	p10 := f.AtClamped(x, y-1)
	p20 := f.AtClamped(x+1, y-1)
	p01 := f.AtClamped(x-1, y)
	p21 := f.AtClamped(x+1, y)
	p02 := f.AtClamped(x-1, y+1)
	p12 := f.AtClamped(x, y+1)
	p22 := f.AtClamped(x+1, y+1)
	gx.Pix[y*f.W+x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
	gy.Pix[y*f.W+x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
}
