//go:build !amd64

package simd

// Off amd64 every kernel is its Go twin.

func accumRows(dst []float32, rows [][]float32, w []float32) { accumRowsGo(dst, rows, w) }

func lane2NN(s1, s2 *[Lanes]float32, qt, rows []float32, dim int) {
	lane2NNGo(s1, s2, qt, rows, dim)
}
