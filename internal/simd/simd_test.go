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
