//go:build !amd64

package simd

// Off amd64 every kernel is its Go twin.

func accumRows(dst []float32, rows [][]float32, w []float32) { accumRowsGo(dst, rows, w) }

func lane2NN(s1, s2 *[Lanes]float32, qt, rows []float32, dim int) {
	lane2NNGo(s1, s2, qt, rows, dim)
}

func hammingLane2NN(s1, s2 *[HammingLanes]uint64, qt, rows []uint64, wpr int) {
	hammingLane2NNGo(s1, s2, qt, rows, wpr)
}

func gradientSamples(mag, ori, wgt, gx, gy, arg []float64) {
	gradientSamplesGo(mag, ori, wgt, gx, gy, arg)
}

func extremaMask(mask []byte, g0, g1, g2, g3 []float32, stride, n int, thr float32) {
	extremaMaskGo(mask, g0, g1, g2, g3, stride, n, thr)
}
