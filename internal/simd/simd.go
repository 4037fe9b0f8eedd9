// Package simd holds the vector kernels behind the hot loops: the
// weighted row sum that runs both passes of the separable Gaussian
// convolution, the flat descriptor index's two 2-NN scans, one over
// float rows and one over binary rows, SIFT's extrema test over the
// difference-of-Gaussian (DoG) values of four Gaussian rows, and its
// per-sample gradient math. Each kernel is an amd64 AVX2 assembly
// routine beside a pure-Go twin. The choice is made once, at package
// init, from CPUID (AVX2 and FMA present and YMM state enabled by the
// OS); every other CPU and GOARCH runs the Go twin, which is also the
// test oracle for the assembly.
//
// The two paths are bit-identical. In the float32 kernels every SIMD
// lane runs exactly one scalar accumulator chain of the Go twin: the
// same operands in the same order, starting from +0, with a separate
// multiply and add. They use no FMA, whose single rounding would
// change bits. The binary kernel's distances are integers, so any
// summation order gives the same result. The extrema kernel computes
// each DoG value with one float32 subtraction, as the scalar test does,
// and compares with the scalar test's own IEEE predicates: the contrast
// test !(|v| <= thr) is NLE_UQ, and the neighbour test n > v is GT_OQ
// after both sides' signs flip wherever v <= 0, which turns n < v into
// -n > -v exactly. So NaN, ±Inf and ±0 land where the Go twin puts them
// and no block needs the twin. The gradient kernel's twin is
// a loop of math.Hypot, math.Atan2 and math.Exp calls, and each of its
// float64 lanes runs the operation sequence those functions run on
// amd64: its exp lanes fuse exactly where math.Exp's FMA path does.
//
// The exported wrappers reslice every input to the exact length the
// kernel reads before dispatching, so no kernel reads past an input's
// capacity: an input too small for it panics in Go before any assembly
// runs.
package simd

import (
	"math"
	"math/bits"
)

// Lanes is the number of query descriptors one Lane2NN call carries:
// one per float32 lane of a 256-bit register.
const Lanes = 8

// HammingLanes is the number of binary query descriptors one
// HammingLane2NN call carries: one per 64-bit lane of a 256-bit
// register.
const HammingLanes = 4

// AccumRows writes the weighted row sum dst[x] = Σ_k rows[k][x]·w[k],
// accumulated in ascending k from +0, for every x of dst. It runs both
// passes of a separable convolution: the vertical pass hands it one
// source row per kernel tap, the horizontal pass the len(w) shifted
// windows of one replicate-padded row. Each rows[k] must hold at least
// len(dst) values; AccumRows reslices the first len(w) entries of
// rows to exactly len(dst) in place.
//
//snmatch:noalloc
func AccumRows(dst []float32, rows [][]float32, w []float32) {
	rows = rows[:len(w)]
	for k, r := range rows {
		rows[k] = r[:len(dst)]
	}
	accumRows(dst, rows, w)
}

// Lane2NN returns, for each of Lanes query descriptors held transposed
// in qt (component i of lane l at qt[i*Lanes+l]), the smallest and
// second-smallest squared Euclidean distance to the len(rows)/dim rows
// of rows (row-major, stride dim). Rows fold in ascending order with
// the strict-less-than update of a scalar 2-NN scan, so ties and NaN
// distances resolve exactly as there; a result with no row left to
// take stays +Inf. Each distance accumulates (q[i]-row[i])² over
// ascending i from +0.
//
//snmatch:noalloc
func Lane2NN(qt, rows []float32, dim int) (s1, s2 [Lanes]float32) {
	qt = qt[:Lanes*dim]
	rows = rows[:len(rows)/dim*dim]
	s1, s2 = infLanes, infLanes
	lane2NN(&s1, &s2, qt, rows, dim)
	return s1, s2
}

var infLanes = [Lanes]float32{inf, inf, inf, inf, inf, inf, inf, inf}

var inf = float32(math.Inf(1))

// LaneBlocks returns how many Lanes-wide blocks hold n query rows.
func LaneBlocks(n int) int { return (n + Lanes - 1) / Lanes }

// HammingBlocks returns how many HammingLanes-wide blocks hold n query
// rows.
func HammingBlocks(n int) int { return (n + HammingLanes - 1) / HammingLanes }

// TransposeLanes copies the len(rows)/dim rows of rows (row-major,
// stride dim) into dst as LaneBlocks(n) blocks of Lanes*dim values,
// the layout Lane2NN reads: row b*Lanes+l's component i lands at
// dst[b*Lanes*dim+i*Lanes+l]. Lanes past the last row are zeroed. dst
// must hold LaneBlocks(n)*Lanes*dim values.
//
//snmatch:noalloc
func TransposeLanes(dst, rows []float32, dim int) { transpose(dst, rows, dim, Lanes) }

// TransposeHammingLanes is TransposeLanes for the word-packed binary
// rows HammingLane2NN reads: the len(rows)/wpr rows of rows (stride
// wpr words) land in HammingBlocks(n) blocks of HammingLanes*wpr
// words, row b*HammingLanes+l's word w at
// dst[b*HammingLanes*wpr+w*HammingLanes+l]. Lanes past the last row
// are zeroed.
//
//snmatch:noalloc
func TransposeHammingLanes(dst, rows []uint64, wpr int) { transpose(dst, rows, wpr, HammingLanes) }

// transpose lays rows of dim values out as lanes-wide blocks, one
// lane per row, zeroing the lanes past the last row.
func transpose[T float32 | uint64](dst, rows []T, dim, lanes int) {
	n := len(rows) / dim
	dst = dst[:(n+lanes-1)/lanes*lanes*dim]
	clear(dst[n/lanes*lanes*dim:])
	for j := 0; j < n; j++ {
		block := dst[j/lanes*lanes*dim:]
		l := j % lanes
		for i, v := range rows[j*dim : (j+1)*dim] {
			block[i*lanes+l] = v
		}
	}
}

// HammingLane2NN returns, for each of HammingLanes binary query
// descriptors held transposed in qt (word w of lane l at
// qt[w*HammingLanes+l]), the smallest and second-smallest Hamming
// distance to the len(rows)/wpr rows of rows (row-major, stride wpr
// words). A result with no row left to take stays math.MaxUint32.
// Distances are integers, so the fold is exact in any form; it runs
// branch-free as s2 = min(s2, max(s1, d)), s1 = min(s1, d), which is
// the scalar strict-less-than 2-NN update. The assembly handles
// four-word (256-bit, ORB) rows; every other width runs the Go twin.
//
//snmatch:noalloc
func HammingLane2NN(qt, rows []uint64, wpr int) (s1, s2 [HammingLanes]uint64) {
	qt = qt[:HammingLanes*wpr]
	rows = rows[:len(rows)/wpr*wpr]
	s1, s2 = noneLanes, noneLanes
	hammingLane2NN(&s1, &s2, qt, rows, wpr)
	return s1, s2
}

// noneLanes seeds the Hamming fold. The assembly folds with unsigned
// 32-bit min and max, so every lane's upper half must stay zero.
var noneLanes = [HammingLanes]uint64{math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32}

// GradientSamples fills, for every i of mag, mag[i] = math.Hypot(gx[i],
// gy[i]), ori[i] = math.Atan2(gy[i], gx[i]) and wgt[i] =
// math.Exp(arg[i]), bit-equal to package math on every target. The
// assembly runs four float64 lanes at a time and hands any block with
// a lane it does not cover to the Go twin: a non-finite gradient, or
// an exp argument outside about [-708.7, 709.4], where math.Exp leaves
// its main path.
//
//snmatch:noalloc
func GradientSamples(mag, ori, wgt, gx, gy, arg []float64) {
	n := len(mag)
	gradientSamples(mag, ori[:n], wgt[:n], gx[:n], gy[:n], arg[:n])
}

// ExtremaMask runs the difference-of-Gaussian (DoG) extremum test on
// n columns of one row, reading the DoG values straight from the four
// Gaussian layers g0 to g3 that span DoG layers prev = g1-g0, cur =
// g2-g1 and next = g3-g2, each difference the float32 subtraction a
// stored DoG raster would hold. Each g slice starts one row above and
// one column left of the row's first tested pixel and has row stride
// stride, so column i's value is at stride+1+i and its 3x3 block spans
// rows 0 to 2 and offsets i to i+2; each must hold 2*stride+n+2
// values.
//
// Bit i%8 of mask[i/8] is set exactly where cur's value v passes
// !(|v| <= thr) and no other value n of the 3x3x3 block has n > v (for
// v > 0) or n < v (otherwise). Those are IEEE predicates, so NaN, ±Inf
// and ±0 fall where the scalar test puts them: a NaN v passes, a NaN
// neighbour never rejects. Bits past n in the last byte are zero.
//
//snmatch:noalloc
func ExtremaMask(mask []byte, g0, g1, g2, g3 []float32, stride, n int, thr float32) {
	mask = mask[:(n+7)/8]
	span := 2*stride + n + 2
	extremaMask(mask, g0[:span], g1[:span], g2[:span], g3[:span], stride, n, thr)
}

// extremaMaskGo is ExtremaMask's Go twin, the scalar test column by
// column: the contrast test, then cur's ring, then prev's and next's
// blocks.
func extremaMaskGo(mask []byte, g0, g1, g2, g3 []float32, stride, n int, thr float32) {
	clear(mask)
	for i := 0; i < n; i++ {
		c := stride + 1 + i
		v := g2[c] - g1[c]
		if absf(v) <= thr {
			continue
		}
		if isExtremum(g0, g1, g2, g3, i, stride, v) {
			mask[i/8] |= 1 << (i % 8)
		}
	}
}

// isExtremum reports whether v, the cur value of column i, is an
// extremum of its 3x3x3 block: for v > 0 no neighbour exceeds it,
// otherwise none falls below it. cur's ring goes first, its own row
// first; the order of the comparisons cannot change the result.
func isExtremum(g0, g1, g2, g3 []float32, i, stride int, v float32) bool {
	c := stride + 1 + i
	ring := [8]int{c - 1, c + 1, i, i + 1, i + 2, c + stride - 1, c + stride, c + stride + 1}
	if v > 0 {
		for _, j := range ring {
			if g2[j]-g1[j] > v {
				return false
			}
		}
		for r := i; r <= i+2*stride; r += stride {
			for j := r; j < r+3; j++ {
				if g1[j]-g0[j] > v || g3[j]-g2[j] > v {
					return false
				}
			}
		}
		return true
	}
	for _, j := range ring {
		if g2[j]-g1[j] < v {
			return false
		}
	}
	for r := i; r <= i+2*stride; r += stride {
		for j := r; j < r+3; j++ {
			if g1[j]-g0[j] < v || g3[j]-g2[j] < v {
				return false
			}
		}
	}
	return true
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// gradientSamplesGo is GradientSamples' Go twin.
func gradientSamplesGo(mag, ori, wgt, gx, gy, arg []float64) {
	for i := range mag {
		mag[i] = math.Hypot(gx[i], gy[i])
		ori[i] = math.Atan2(gy[i], gx[i])
		wgt[i] = math.Exp(arg[i])
	}
}

// accumRowsGo is AccumRows' Go twin. Blocks of eight columns run eight
// independent accumulator chains across all taps and store each output
// once; every column sums its taps in ascending order.
func accumRowsGo(dst []float32, rows [][]float32, w []float32) {
	n := len(dst)
	x := 0
	for ; x+8 <= n; x += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for k, kv := range w {
			src := rows[k][x : x+8]
			a0 += src[0] * kv
			a1 += src[1] * kv
			a2 += src[2] * kv
			a3 += src[3] * kv
			a4 += src[4] * kv
			a5 += src[5] * kv
			a6 += src[6] * kv
			a7 += src[7] * kv
		}
		dst[x] = a0
		dst[x+1] = a1
		dst[x+2] = a2
		dst[x+3] = a3
		dst[x+4] = a4
		dst[x+5] = a5
		dst[x+6] = a6
		dst[x+7] = a7
	}
	for ; x < n; x++ {
		var acc float32
		for k, kv := range w {
			acc += rows[k][x] * kv
		}
		dst[x] = acc
	}
}

// lane2NNGo is Lane2NN's Go twin: it folds each row of rows into the
// running per-lane best s1 and second-best s2, one accumulator chain
// per lane.
func lane2NNGo(s1, s2 *[Lanes]float32, qt, rows []float32, dim int) {
	for r := 0; r < len(rows); r += dim {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for i, v := range rows[r : r+dim] {
			q := qt[i*Lanes : i*Lanes+Lanes]
			d0 := q[0] - v
			a0 += d0 * d0
			d1 := q[1] - v
			a1 += d1 * d1
			d2 := q[2] - v
			a2 += d2 * d2
			d3 := q[3] - v
			a3 += d3 * d3
			d4 := q[4] - v
			a4 += d4 * d4
			d5 := q[5] - v
			a5 += d5 * d5
			d6 := q[6] - v
			a6 += d6 * d6
			d7 := q[7] - v
			a7 += d7 * d7
		}
		for l, d := range [Lanes]float32{a0, a1, a2, a3, a4, a5, a6, a7} {
			if d < s1[l] {
				s1[l], s2[l] = d, s1[l]
			} else if d < s2[l] {
				s2[l] = d
			}
		}
	}
}

// hammingLane2NNGo is HammingLane2NN's Go twin, for every row width:
// four popcount sums per row, folded into per-lane locals.
func hammingLane2NNGo(s1, s2 *[HammingLanes]uint64, qt, rows []uint64, wpr int) {
	a0, a1, a2, a3 := s1[0], s1[1], s1[2], s1[3]
	b0, b1, b2, b3 := s2[0], s2[1], s2[2], s2[3]
	qt = qt[:wpr*HammingLanes]
	for r := 0; r < len(rows); r += wpr {
		var d0, d1, d2, d3 int
		for w, v := range rows[r : r+wpr] {
			q := (*[HammingLanes]uint64)(qt[w*HammingLanes:])
			d0 += bits.OnesCount64(q[0] ^ v)
			d1 += bits.OnesCount64(q[1] ^ v)
			d2 += bits.OnesCount64(q[2] ^ v)
			d3 += bits.OnesCount64(q[3] ^ v)
		}
		a0, b0 = fold2NN(a0, b0, uint64(d0))
		a1, b1 = fold2NN(a1, b1, uint64(d1))
		a2, b2 = fold2NN(a2, b2, uint64(d2))
		a3, b3 = fold2NN(a3, b3, uint64(d3))
	}
	*s1 = [HammingLanes]uint64{a0, a1, a2, a3}
	*s2 = [HammingLanes]uint64{b0, b1, b2, b3}
}

// fold2NN folds distance d into the best s1 and second-best s2.
func fold2NN(s1, s2, d uint64) (uint64, uint64) { return min(s1, d), min(s2, max(s1, d)) }
