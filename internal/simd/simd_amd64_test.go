package simd

import (
	"fmt"
	"math"
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
