package simd

import (
	"math"
	"testing"
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
