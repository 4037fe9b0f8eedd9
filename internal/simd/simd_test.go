package simd

import (
	"math"
	"math/bits"
	"testing"

	"snmatch/internal/rng"
)

// TestTransposeLanesLayout pins the lane-block layout on a dirty
// buffer (pooled scratch is reused): every row lands at its lane, and
// every lane past the last row reads zero.
func TestTransposeLanesLayout(t *testing.T) {
	const dim = 3
	for n := 0; n <= 2*Lanes+1; n++ {
		rows := make([]float32, n*dim)
		for i := range rows {
			rows[i] = float32(i + 1)
		}
		dst := make([]float32, LaneBlocks(n)*Lanes*dim)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		TransposeLanes(dst, rows, dim)
		for b := 0; b < LaneBlocks(n); b++ {
			for i := 0; i < dim; i++ {
				for l := 0; l < Lanes; l++ {
					want := float32(0)
					if j := b*Lanes + l; j < n {
						want = rows[j*dim+i]
					}
					if got := dst[b*Lanes*dim+i*Lanes+l]; got != want {
						t.Fatalf("n=%d block %d component %d lane %d: %v, want %v", n, b, i, l, got, want)
					}
				}
			}
		}
	}
}

// TestWrappersRejectShortInputs: the exported wrappers reslice to the
// length the kernel reads, so a short input panics in Go.
func TestWrappersRejectShortInputs(t *testing.T) {
	for name, call := range map[string]func(){
		"AccumRows": func() { AccumRows(make([]float32, 9), [][]float32{make([]float32, 4)}, []float32{1}) },
		"Lane2NN":   func() { Lane2NN(make([]float32, Lanes), make([]float32, 8), 2) },
		"HammingLane2NN": func() {
			HammingLane2NN(make([]uint64, 2*HammingLanes-1), make([]uint64, 8), 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an input shorter than the kernel reads", name)
				}
			}()
			call()
		}()
	}
}

// TestTransposeHammingLanesLayout pins the binary lane-block layout on
// a dirty buffer, as TestTransposeLanesLayout does for floats.
func TestTransposeHammingLanesLayout(t *testing.T) {
	const wpr = 3
	for n := 0; n <= 2*HammingLanes+1; n++ {
		rows := make([]uint64, n*wpr)
		for i := range rows {
			rows[i] = uint64(i + 1)
		}
		dst := make([]uint64, HammingBlocks(n)*HammingLanes*wpr)
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		TransposeHammingLanes(dst, rows, wpr)
		for b := 0; b < HammingBlocks(n); b++ {
			for w := 0; w < wpr; w++ {
				for l := 0; l < HammingLanes; l++ {
					want := uint64(0)
					if j := b*HammingLanes + l; j < n {
						want = rows[j*wpr+w]
					}
					if got := dst[b*HammingLanes*wpr+w*HammingLanes+l]; got != want {
						t.Fatalf("n=%d block %d word %d lane %d: %#x, want %#x", n, b, w, l, got, want)
					}
				}
			}
		}
	}
}

// TestHammingLane2NNMatchesScalar checks the dispatched kernel, the
// assembly at four words and the Go twin at every other width, against
// a scalar strict-less-than 2-NN scan per lane, on row counts from 0
// and small-alphabet words that force equal distances.
func TestHammingLane2NNMatchesScalar(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 300; trial++ {
		wpr := 1 + trial%6
		n := r.Intn(20)
		word := func() uint64 {
			if trial%2 == 0 {
				return r.Uint64()
			}
			return uint64(r.Intn(8))
		}
		rows := make([]uint64, n*wpr)
		for i := range rows {
			rows[i] = word()
		}
		nq := 1 + r.Intn(HammingLanes)
		q := make([]uint64, nq*wpr)
		for i := range q {
			q[i] = word()
		}
		qt := make([]uint64, HammingLanes*wpr)
		TransposeHammingLanes(qt, q, wpr)
		s1, s2 := HammingLane2NN(qt, rows, wpr)
		for l := 0; l < nq; l++ {
			w1, w2 := uint64(math.MaxUint32), uint64(math.MaxUint32)
			for i := 0; i < n; i++ {
				d := uint64(0)
				for w := 0; w < wpr; w++ {
					d += uint64(bits.OnesCount64(q[l*wpr+w] ^ rows[i*wpr+w]))
				}
				if d < w1 {
					w1, w2 = d, w1
				} else if d < w2 {
					w2 = d
				}
			}
			if s1[l] != w1 || s2[l] != w2 {
				t.Fatalf("trial %d (wpr %d, %d rows) lane %d: (%d, %d), want (%d, %d)",
					trial, wpr, n, l, s1[l], s2[l], w1, w2)
			}
		}
	}
}

// gradientEdges are gradient components that sit on a branch or a
// rounding edge of math.Hypot or math.Atan2: signed zeros, subnormals,
// the smallest normal, the largest finite value, infinities, NaN, and
// satan's thresholds 0.66 and tan(3π/8) with their neighbouring ulps
// (with gx = ±1, t = gy/gx is the value itself).
func gradientEdges() []float64 {
	const tan3pio8 = 2.41421356237309504880
	vs := []float64{0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
		1e-300, 0.25, 1, 1.5, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, c := range []float64{0.66, tan3pio8} {
		for k, v := 0, c; k < 3; k++ {
			v = math.Nextafter(v, 0)
			vs = append(vs, v)
		}
		for k, v := 0, c; k < 3; k++ {
			vs = append(vs, v)
			v = math.Nextafter(v, 10)
		}
	}
	for _, v := range vs {
		vs = append(vs, -v)
	}
	return append(vs, math.NaN())
}

// expEdges are exp arguments around every threshold of math.Exp on
// amd64 and of the assembly's coverage, each with its neighbouring
// ulps: overflow (709.78), the largest k the assembly covers (k =
// 1023, up to 1023.5/log2(e)), the smallest (k = -1022, down to
// -1022.5/log2(e)), the first subnormal result (-708.40), the last
// non-zero one (-745.13), and the non-finite values.
func expEdges() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, -1, -1.5625, -9, -1e10, 1e10,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []float64{709.782712893384, 1023.5 / math.Log2E, -1022.5 / math.Log2E,
		-708.3964185322641, -745.1332191019411} {
		vs = append(vs, c)
		for k, lo, hi := 0, c, c; k < 3; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			vs = append(vs, lo, hi)
		}
	}
	return vs
}

// siftLikeSamples returns n gradient samples as SIFT gathers them:
// differences of two [0, 1] float32 pixels, a tenth of them from
// flat-ish patches (tiny or zero differences), and Gaussian-weight
// exponents as the descriptor (|rot| < 2.5 cells, over 8) and the
// orientation histogram (integer offsets over 2σ²) compute them.
func siftLikeSamples(r *rng.RNG, n int) (gx, gy, arg []float64) {
	gx, gy, arg = make([]float64, n), make([]float64, n), make([]float64, n)
	pix := func() float32 { return float32(r.Float64()) }
	for i := range gx {
		if r.Intn(10) == 0 {
			p := pix()
			gx[i] = float64(p - float32(float64(p)+r.Range(-1e-6, 1e-6)))
			gy[i] = float64(p - pix()*float32(r.Intn(2)))
		} else {
			gx[i] = float64(pix() - pix())
			gy[i] = float64(pix() - pix())
		}
		if r.Intn(2) == 0 {
			rx, ry := r.Range(-2.5, 2.5), r.Range(-2.5, 2.5)
			arg[i] = -(rx*rx + ry*ry) / 8
		} else {
			dx, dy, s := r.IntRange(-20, 20), r.IntRange(-20, 20), 1.5*r.Range(1.6, 3.7)
			arg[i] = -(float64(dx*dx) + float64(dy*dy)) / (2 * s * s)
		}
	}
	return gx, gy, arg
}

// gradientCases are GradientSamples inputs. Every pair of
// gradientEdges (under exp(-1)) and every expEdges argument (under a
// finite gradient) runs alone, as a one-lane tail, and four times
// over, as one full block, so each reaches the assembly unless it is
// one the assembly hands to the Go twin. Then rows of 1 to 13 mixed
// edge samples put covered and uncovered lanes in one block, and
// siftLikeSamples rows of 1 to 80 samples bring the total over one
// million.
func gradientCases() (gx, gy, arg [][]float64) {
	var ex, ey, ea []float64
	edges := gradientEdges()
	for _, x := range edges {
		for _, y := range edges {
			ex, ey, ea = append(ex, x), append(ey, y), append(ea, -1)
		}
	}
	for i, e := range expEdges() {
		ex, ey, ea = append(ex, float64(i)-7), append(ey, 0.5), append(ea, e)
	}
	repeat := func(v float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	for i := range ex {
		for _, n := range []int{1, 4} {
			gx, gy, arg = append(gx, repeat(ex[i], n)), append(gy, repeat(ey[i], n)), append(arg, repeat(ea[i], n))
		}
	}
	r := rng.New(17)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + trial%13
		x, y, a := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			j := r.Intn(len(ex))
			x[i], y[i], a[i] = ex[j], ey[j], ea[j]
		}
		gx, gy, arg = append(gx, x), append(gy, y), append(arg, a)
	}
	for total := 0; total < 1<<20; {
		x, y, a := siftLikeSamples(r, 1+r.Intn(80))
		gx, gy, arg = append(gx, x), append(gy, y), append(arg, a)
		total += len(x)
	}
	return gx, gy, arg
}

// gradientGuard marks the slots past a row's end, which no kernel may
// write.
const gradientGuard = -12345.678

// runGradient runs kernel over one row into outputs with three guard
// slots past n, checks the guards and returns the outputs.
func runGradient(t *testing.T, kernel func(mag, ori, wgt, gx, gy, arg []float64), gx, gy, arg []float64) (mag, ori, wgt []float64) {
	t.Helper()
	n := len(gx)
	out := make([][]float64, 3)
	for k := range out {
		out[k] = make([]float64, n+3)
		for i := range out[k] {
			out[k][i] = gradientGuard
		}
	}
	kernel(out[0][:n], out[1][:n], out[2][:n], gx, gy, arg)
	for k := range out {
		for _, v := range out[k][n:] {
			if v != gradientGuard {
				t.Fatalf("row of %d: output %d written past its end", n, k)
			}
		}
	}
	return out[0][:n], out[1][:n], out[2][:n]
}

// gradientBitsEqual compares one output row with want bit for bit.
func gradientBitsEqual(t *testing.T, label string, gx, gy, arg, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: sample %d (gx %v, gy %v, arg %v): want %v (%#016x), got %v (%#016x)",
				label, i, gx[i], gy[i], arg[i], want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// TestGradientSamplesMatchesMath checks the dispatched kernel against
// package math called directly, on every GOARCH: the assembly where
// it runs, the Go twin elsewhere.
func TestGradientSamplesMatchesMath(t *testing.T) {
	gx, gy, arg := gradientCases()
	for r := range gx {
		mag, ori, wgt := runGradient(t, GradientSamples, gx[r], gy[r], arg[r])
		for i := range mag {
			want := [3]float64{math.Hypot(gx[r][i], gy[r][i]), math.Atan2(gy[r][i], gx[r][i]), math.Exp(arg[r][i])}
			for k, got := range [3]float64{mag[i], ori[i], wgt[i]} {
				if math.Float64bits(want[k]) != math.Float64bits(got) {
					t.Fatalf("row %d sample %d (gx %v, gy %v, arg %v): output %d = %v (%#016x), math gives %v (%#016x)",
						r, i, gx[r][i], gy[r][i], arg[r][i], k, got, math.Float64bits(got), want[k], math.Float64bits(want[k]))
				}
			}
		}
	}
}
