package simd

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"snmatch/internal/rng"
)

// requireAVX2 skips an assembly-vs-Go comparison on CPUs where the
// assembly never runs, and logs which path the test exercised.
func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU lacks AVX2 or the OS has not enabled YMM state: the Go twins are the only path here")
	}
	t.Log("AVX2 path active: comparing the assembly kernel with its Go twin")
}

// randVals fills n floats of mixed sign and magnitude, so any change
// in operation order shows up in the low bits.
func randVals(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.Range(-1, 1) * math.Ldexp(1, r.IntRange(-8, 8)))
	}
	return v
}

func bitsEqual(t *testing.T, label string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d: Go twin %v (%#08x), assembly %v (%#08x)",
				label, i, want[i], math.Float32bits(want[i]), got[i], math.Float32bits(got[i]))
		}
	}
}

// TestKernelAccumRowsBitEqual covers every width remainder mod 32 and
// mod 8, odd and even tap counts, and a single tap. Odd trials pass
// the horizontal convolution pass's rows, overlapping shifted windows
// of one padded row, with kernels up to twice as wide as the row.
func TestKernelAccumRowsBitEqual(t *testing.T) {
	requireAVX2(t)
	r := rng.New(3)
	for trial := 0; trial < 400; trial++ {
		w := trial % 97
		var rows [][]float32
		if trial%2 == 0 {
			rows = make([][]float32, 1+r.Intn(14))
			for k := range rows {
				rows[k] = randVals(r, w)
			}
		} else {
			rows = make([][]float32, 1+r.Intn(2*w+4))
			pad := randVals(r, w+len(rows)-1)
			for k := range rows {
				rows[k] = pad[k : k+w]
			}
		}
		kernel := randVals(r, len(rows))
		want, got := make([]float32, w), make([]float32, w)
		accumRowsGo(want, rows, kernel)
		accumRowsAVX2(got, rows, kernel)
		bitsEqual(t, "accumRows", want, got)
	}
}

// TestKernelLane2NNBitEqual covers every row count mod 4, dimensions
// 1 to 130, lane blocks padded past the last query, coarse values that
// force exact distance ties, duplicated rows, and NaN distances.
func TestKernelLane2NNBitEqual(t *testing.T) {
	requireAVX2(t)
	r := rng.New(7)
	for trial := 0; trial < 400; trial++ {
		dim := 1 + r.Intn(130)
		n := trial % 13
		nq := 1 + r.Intn(Lanes)
		coarse := trial%2 == 0
		vals := func(k int) []float32 {
			if !coarse {
				return randVals(r, k)
			}
			v := make([]float32, k)
			for i := range v {
				v[i] = float32(r.Intn(3))
			}
			return v
		}
		rows := vals(n * dim)
		for i := 1; i < n; i++ {
			if r.Intn(3) == 0 { // duplicate an earlier row
				j := r.Intn(i)
				copy(rows[i*dim:(i+1)*dim], rows[j*dim:(j+1)*dim])
			}
		}
		if n > 0 && trial%7 == 0 {
			rows[r.Intn(n*dim)] = float32(math.NaN())
		}
		qt := make([]float32, Lanes*dim)
		TransposeLanes(qt, vals(nq*dim), dim)

		ws1, ws2 := infLanes, infLanes
		gs1, gs2 := infLanes, infLanes
		lane2NNGo(&ws1, &ws2, qt, rows, dim)
		lane2NNAVX2(&gs1, &gs2, qt, rows, dim)
		bitsEqual(t, "lane2NN best", ws1[:], gs1[:])
		bitsEqual(t, "lane2NN second", ws2[:], gs2[:])
	}
}

// TestKernelHammingLane2NNBitEqual runs the assembly against the Go
// twin on 0 to 100 four-word rows: random words, and all-zero and
// all-one words that put every distance at 0 or 256 and force ties.
// Duplicated rows and partly padded lane blocks ride along.
func TestKernelHammingLane2NNBitEqual(t *testing.T) {
	requireAVX2(t)
	r := rng.New(11)
	const wpr = 4
	for trial := 0; trial < 400; trial++ {
		n := trial % 101
		word := func() uint64 {
			switch trial % 3 {
			case 1:
				return [2]uint64{0, ^uint64(0)}[r.Intn(2)]
			case 2:
				return uint64(r.Intn(4)) << (r.Intn(62)) // sparse words: near ties
			}
			return r.Uint64()
		}
		rows := make([]uint64, n*wpr)
		for i := range rows {
			rows[i] = word()
		}
		for i := 1; i < n; i++ {
			if r.Intn(4) == 0 { // duplicate an earlier row
				j := r.Intn(i)
				copy(rows[i*wpr:(i+1)*wpr], rows[j*wpr:(j+1)*wpr])
			}
		}
		q := make([]uint64, (1+r.Intn(HammingLanes))*wpr)
		for i := range q {
			q[i] = word()
		}
		qt := make([]uint64, HammingLanes*wpr)
		TransposeHammingLanes(qt, q, wpr)

		ws1, ws2 := noneLanes, noneLanes
		gs1, gs2 := noneLanes, noneLanes
		hammingLane2NNGo(&ws1, &ws2, qt, rows, wpr)
		hammingLane2NNAVX2(&gs1, &gs2, qt, rows)
		if ws1 != gs1 || ws2 != gs2 {
			t.Fatalf("trial %d (%d rows): Go twin best %v second %v, assembly best %v second %v",
				trial, n, ws1, ws2, gs1, gs2)
		}
	}
}

func benchKernels(b *testing.B, asm, twin func()) {
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("CPU lacks AVX2 or the OS has not enabled YMM state")
		}
		for i := 0; i < b.N; i++ {
			asm()
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			twin()
		}
	})
}

// BenchmarkKernelAccumRows is one output row of either convolution
// pass over a 256-wide row with an 11-tap kernel: SIFT's doubled
// 128 px base image at σ≈1.6.
func BenchmarkKernelAccumRows(b *testing.B) {
	r := rng.New(1)
	const w, taps = 256, 11
	rows := make([][]float32, taps)
	for k := range rows {
		rows[k] = randVals(r, w)
	}
	kernel, dst := randVals(r, taps), make([]float32, w)
	benchKernels(b,
		func() { accumRowsAVX2(dst, rows, kernel) },
		func() { accumRowsGo(dst, rows, kernel) })
}

// BenchmarkKernelLane2NN scans one lane block of 128-dim SIFT queries
// over 22 rows, the mean view size of the 440-view SIFT gallery.
func BenchmarkKernelLane2NN(b *testing.B) {
	r := rng.New(4)
	const dim, n = 128, 22
	qt, rows := make([]float32, Lanes*dim), randVals(r, n*dim)
	TransposeLanes(qt, randVals(r, Lanes*dim), dim)
	var s1, s2 [Lanes]float32
	benchKernels(b,
		func() { s1, s2 = infLanes, infLanes; lane2NNAVX2(&s1, &s2, qt, rows, dim) },
		func() { s1, s2 = infLanes, infLanes; lane2NNGo(&s1, &s2, qt, rows, dim) })
}

// BenchmarkKernelHammingLane2NN scans one lane block of ORB queries
// over 45 rows, the mean view size of the 440-view ORB gallery.
func BenchmarkKernelHammingLane2NN(b *testing.B) {
	r := rng.New(5)
	const wpr, n = 4, 45
	q, rows := make([]uint64, HammingLanes*wpr), make([]uint64, n*wpr)
	for i := range q {
		q[i] = r.Uint64()
	}
	for i := range rows {
		rows[i] = r.Uint64()
	}
	qt := make([]uint64, HammingLanes*wpr)
	TransposeHammingLanes(qt, q, wpr)
	var s1, s2 [HammingLanes]uint64
	benchKernels(b,
		func() { s1, s2 = noneLanes, noneLanes; hammingLane2NNAVX2(&s1, &s2, qt, rows) },
		func() { s1, s2 = noneLanes, noneLanes; hammingLane2NNGo(&s1, &s2, qt, rows, wpr) })
}

// TestKernelGradientSamplesBitEqual runs the assembly alone and the
// dispatched kernel against the Go twin on gradientCases: over a
// million SIFT-like samples in rows of every tail length, and the
// edges of hypot, atan2 and exp (signed zeros, equal magnitudes,
// satan's thresholds and their ulps, x < 0 with a zero quotient,
// subnormals, infinities, NaN, exp's overflow and subnormal
// thresholds). The assembly alone must write only whole covered
// blocks before the index it returns, and must cover every SIFT-like
// row to its end.
func TestKernelGradientSamplesBitEqual(t *testing.T) {
	requireAVX2(t)
	gx, gy, arg := gradientCases()
	var done int
	asm := func(mag, ori, wgt, gx, gy, arg []float64) {
		done = gradientSamplesAVX2(mag, ori, wgt, gx, gy, arg)
	}
	fellBack := 0
	for r := range gx {
		x, y, a := gx[r], gy[r], arg[r]
		wm, wo, ww := runGradient(t, gradientSamplesGo, x, y, a)
		dm, do, dw := runGradient(t, gradientSamples, x, y, a)
		label := fmt.Sprintf("row %d", r)
		gradientBitsEqual(t, label+" mag", x, y, a, wm, dm)
		gradientBitsEqual(t, label+" ori", x, y, a, wo, do)
		gradientBitsEqual(t, label+" wgt", x, y, a, ww, dw)

		am, ao, aw := runGradient(t, asm, x, y, a)
		if done < 0 || done > len(x) || done%4 != 0 && done != len(x) {
			t.Fatalf("%s: assembly stopped at %d of %d, not at a block edge", label, done, len(x))
		}
		if done < len(x) {
			fellBack++
			for k, out := range [3][]float64{am, ao, aw} {
				for i := done; i < min(done+4, len(x)); i++ {
					if out[i] != gradientGuard {
						t.Fatalf("%s: assembly wrote output %d of the block it handed back", label, k)
					}
				}
			}
		}
		gradientBitsEqual(t, label+" asm mag", x, y, a, wm[:done], am[:done])
		gradientBitsEqual(t, label+" asm ori", x, y, a, wo[:done], ao[:done])
		gradientBitsEqual(t, label+" asm wgt", x, y, a, ww[:done], aw[:done])
	}
	sift := rng.New(23)
	for trial := 0; trial < 1000; trial++ {
		x, y, a := siftLikeSamples(sift, 1+trial%80)
		mag, ori, wgt := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
		if done := gradientSamplesAVX2(mag, ori, wgt, x, y, a); done != len(x) {
			t.Fatalf("SIFT-like row of %d samples: assembly covered only %d", len(x), done)
		}
	}
	if fellBack == 0 {
		t.Fatal("no edge row reached the Go twin: the coverage test is not exercised")
	}
}

// BenchmarkKernelGradientSamples is one 64-sample row of SIFT-like
// gradients.
func BenchmarkKernelGradientSamples(b *testing.B) {
	gx, gy, arg := siftLikeSamples(rng.New(6), 64)
	mag, ori, wgt := make([]float64, 64), make([]float64, 64), make([]float64, 64)
	benchKernels(b,
		func() { gradientSamplesAVX2(mag, ori, wgt, gx, gy, arg) },
		func() { gradientSamplesGo(mag, ori, wgt, gx, gy, arg) })
}

// extremaCase is one ExtremaMask input: four Gaussian layers of three
// rows at the given stride, n tested columns and the contrast
// threshold.
type extremaCase struct {
	g         [4][]float32
	stride, n int
	thr       float32
}

func newExtremaCase(stride, n int, thr float32) *extremaCase {
	c := &extremaCase{stride: stride, n: n, thr: thr}
	for l := range c.g {
		c.g[l] = make([]float32, 2*stride+n+2)
	}
	return c
}

// dog returns the DoG value of layer l (0 prev, 1 cur, 2 next) at
// element j, as the kernel computes it.
func (c *extremaCase) dog(l, j int) float32 { return c.g[l+1][j] - c.g[l][j] }

// extremaSpecials are the values planted as v and as each neighbour:
// NaN, ±Inf, ±0, the smallest and largest subnormals of both signs,
// ordinary values on both sides of v, and the contrast threshold
// extremaThr and its neighbouring ulps at both signs.
func extremaSpecials() []float32 {
	const thr = extremaThr
	sub, maxSub := math.Float32frombits(1), math.Float32frombits(0x007fffff)
	return []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		sub, -sub, maxSub, -maxSub, 1, -1, 2, -2, 0.5, -0.5,
		thr, math.Nextafter32(thr, 1), math.Nextafter32(thr, 0),
		-thr, math.Nextafter32(-thr, -1), math.Nextafter32(-thr, 0),
	}
}

const extremaThr = float32(0.375)

// plant builds a row whose column j holds v = m, a strict extremum
// over a block of +0 DoG values, and then sets the DoG value of layer
// l at row dy and offset dx of j's block to s, exactly: every other
// DoG value it touches reads NaN or +0, which never rejects v.
func plant(stride, n, j int, m, s float32, l, dy, dx int) *extremaCase {
	c := newExtremaCase(stride, n, extremaThr)
	g0, g1, g2, g3 := c.g[0], c.g[1], c.g[2], c.g[3]
	ctr := stride + 1 + j
	o := ctr + dy*stride + dx
	if l == 2 && o == ctr {
		// v from g1, so next's centre is g3 alone.
		g0[ctr], g1[ctr], g3[ctr] = -m, -m, s
		return c
	}
	g2[ctr], g3[ctr] = m, m
	switch {
	case l == 1:
		g2[o], g3[o] = s, s
	case l == 2:
		g3[o] = s
	case o != ctr:
		g1[o], g2[o], g3[o] = s, s, s
	case s == 0 && math.Signbit(float64(s)):
		g1[ctr] = s
	default:
		g0[ctr] = -s
	}
	return c
}

// sameFloat reports whether a and b have the same bits or are both NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// checkExtrema runs the Go twin, the dispatched kernel and the
// assembly alone on c and requires the same mask bytes. Both the
// dispatched and the assembly outputs start dirty, and the assembly
// must not write past its last full block.
func checkExtrema(t *testing.T, label string, c *extremaCase) []byte {
	t.Helper()
	nb := (c.n + 7) / 8
	want := make([]byte, nb)
	extremaMaskGo(want, c.g[0], c.g[1], c.g[2], c.g[3], c.stride, c.n, c.thr)
	if c.n%8 != 0 && want[nb-1]>>(c.n%8) != 0 {
		t.Fatalf("%s: Go twin set a bit past column %d: %08b", label, c.n, want[nb-1])
	}
	got := bytes.Repeat([]byte{0xff}, nb)
	ExtremaMask(got, c.g[0], c.g[1], c.g[2], c.g[3], c.stride, c.n, c.thr)
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: dispatched mask %08b, Go twin %08b", label, got, want)
	}
	full := c.n / 8
	asm := bytes.Repeat([]byte{0xa5}, full+1)
	extremaMaskAVX2(asm[:full], c.g[0], c.g[1], c.g[2], c.g[3], c.stride, c.thr)
	if !bytes.Equal(want[:full], asm[:full]) || asm[full] != 0xa5 {
		t.Fatalf("%s: assembly mask %08b, Go twin %08b", label, asm, want[:full])
	}
	return want
}

// TestKernelExtremaMaskBitEqual compares the assembly alone, the
// dispatched kernel and the Go twin bit for bit at widths 1 to 40, so
// every tail length runs. Planted rows put each extremaSpecials value
// as v and as each of the 26 neighbours of a strict extremum, at both
// signs of v and at every lane of a block; random rows draw values
// from a few levels, so DoG values tie, with specials sprinkled in.
func TestKernelExtremaMaskBitEqual(t *testing.T) {
	requireAVX2(t)
	specials := extremaSpecials()
	trial := 0
	for _, s := range specials {
		for _, m := range []float32{1, -1} {
			for p := 0; p < 27; p++ {
				l, dy, dx := p/9, p/3%3-1, p%3-1
				n := 1 + trial%40
				j := trial * 7 % n
				trial++
				c := plant(n+2+trial%3, n, j, m, s, l, dy, dx)
				ctr := c.stride + 1 + j
				v, centre := m, l == 1 && dy == 0 && dx == 0
				if centre {
					v = s
				}
				if got := c.dog(1, ctr); !sameFloat(got, v) {
					t.Fatalf("plant(s=%v, m=%v, layer %d, %d, %d): v = %v", s, m, l, dy, dx, got)
				}
				if got := c.dog(l, ctr+dy*c.stride+dx); !sameFloat(got, s) {
					t.Fatalf("plant(s=%v, m=%v, layer %d, %d, %d): planted %v", s, m, l, dy, dx, got)
				}
				label := fmt.Sprintf("planted s=%v m=%v layer %d (%d, %d) n=%d column %d", s, m, l, dy, dx, n, j)
				mask := checkExtrema(t, label, c)
				// Only v and the planted value can decide the bit.
				wantBit := !(absf(v) <= c.thr)
				if !centre && (m > 0 && s > m || m < 0 && s < m) {
					wantBit = false
				}
				if got := mask[j/8]>>(j%8)&1 == 1; got != wantBit {
					t.Fatalf("%s: bit %v, want %v", label, got, wantBit)
				}
			}
		}
	}
	r := rng.New(29)
	levels := []float32{0, 0.25, 0.5, 1, -0.5}
	set := 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + trial%40
		c := newExtremaCase(n+2+r.Intn(4), n, []float32{0, 0.25, 0.5, extremaThr}[r.Intn(4)])
		sprinkle := trial%3 == 0
		for _, g := range c.g {
			for i := range g {
				g[i] = levels[r.Intn(len(levels))]
				if sprinkle && r.Intn(16) == 0 {
					g[i] = specials[r.Intn(len(specials))]
				}
			}
		}
		for _, b := range checkExtrema(t, fmt.Sprintf("random trial %d n=%d", trial, n), c) {
			set += bits.OnesCount8(b)
		}
	}
	if set == 0 {
		t.Fatal("no random row held an extremum: the comparison is not exercised")
	}
}

// BenchmarkKernelExtremaMask is one sweep row of a 256-wide octave
// (SIFT's doubled 128 px base): 246 columns of SIFT-like layers whose
// DoG values are a few times the contrast threshold.
func BenchmarkKernelExtremaMask(b *testing.B) {
	r := rng.New(8)
	const w, n, thr = 256, 246, float32(0.04 * 0.5 / 3)
	c := newExtremaCase(w, n, thr)
	for i := range c.g[0] {
		c.g[0][i] = float32(r.Range(0, 1))
		for l := 1; l < 4; l++ {
			c.g[l][i] = c.g[l-1][i] + float32(r.Range(-0.02, 0.02))
		}
	}
	mask := make([]byte, (n+7)/8)
	benchKernels(b,
		func() { extremaMaskAVX2(mask[:n/8], c.g[0], c.g[1], c.g[2], c.g[3], w, thr) },
		func() { extremaMaskGo(mask, c.g[0], c.g[1], c.g[2], c.g[3], w, n, thr) })
}
