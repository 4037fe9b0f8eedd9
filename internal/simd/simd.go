// Package simd holds the vector kernels behind the float hot loops:
// the weighted row sum that runs both passes of the separable Gaussian
// convolution, and the flat descriptor index's 2-NN scan. Each kernel
// is an amd64 AVX2 assembly routine beside a pure-Go twin. The choice
// is made once, at package init, from CPUID (AVX2 present and YMM
// state enabled by the OS); every other CPU and GOARCH runs the Go
// twin, which is also the test oracle for the assembly.
//
// The two paths are bit-identical. Every SIMD lane runs exactly one
// scalar accumulator chain of the Go twin: the same operands in the
// same order, starting from +0, with a separate multiply and add.
// Nothing uses FMA, whose single rounding would change bits.
//
// The exported wrappers reslice every input to the exact length the
// kernel reads before dispatching, so no kernel reads past an input's
// capacity: an input too small for it panics in Go before any assembly
// runs.
package simd

import "math"

// Lanes is the number of query descriptors one Lane2NN call carries:
// one per float32 lane of a 256-bit register.
const Lanes = 8

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

// TransposeLanes copies the len(rows)/dim rows of rows (row-major,
// stride dim) into dst as LaneBlocks(n) blocks of Lanes*dim values,
// the layout Lane2NN reads: row b*Lanes+l's component i lands at
// dst[b*Lanes*dim+i*Lanes+l]. Lanes past the last row are zeroed. dst
// must hold LaneBlocks(n)*Lanes*dim values.
//
//snmatch:noalloc
func TransposeLanes(dst, rows []float32, dim int) {
	n := len(rows) / dim
	dst = dst[:LaneBlocks(n)*Lanes*dim]
	clear(dst[n/Lanes*Lanes*dim:])
	for j := 0; j < n; j++ {
		block := dst[j/Lanes*Lanes*dim:]
		l := j % Lanes
		for i, v := range rows[j*dim : (j+1)*dim] {
			block[i*Lanes+l] = v
		}
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
