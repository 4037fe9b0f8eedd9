package simd

// useAVX2 selects the assembly kernels. It is decided once, at package
// init, and never changes.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the
// YMM registers across context switches: CPUID.1:ECX OSXSAVE (bit 27)
// and AVX (bit 28), XCR0 with the XMM and YMM state bits (1 and 2)
// set, and CPUID.(EAX=7,ECX=0):EBX AVX2 (bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func accumRows(dst []float32, rows [][]float32, w []float32) {
	if useAVX2 {
		accumRowsAVX2(dst, rows, w)
		return
	}
	accumRowsGo(dst, rows, w)
}

func lane2NN(s1, s2 *[Lanes]float32, qt, rows []float32, dim int) {
	if useAVX2 {
		lane2NNAVX2(s1, s2, qt, rows, dim)
		return
	}
	lane2NNGo(s1, s2, qt, rows, dim)
}

func hammingLane2NN(s1, s2 *[HammingLanes]uint64, qt, rows []uint64, wpr int) {
	if useAVX2 && wpr == 4 {
		hammingLane2NNAVX2(s1, s2, qt, rows)
		return
	}
	hammingLane2NNGo(s1, s2, qt, rows, wpr)
}

// The assembly kernels trust their callers: every slice is already
// resliced to the exact length read, and dim > 0.

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

//go:noescape
func accumRowsAVX2(dst []float32, rows [][]float32, w []float32)

//go:noescape
func lane2NNAVX2(s1, s2 *[Lanes]float32, qt, rows []float32, dim int)

//go:noescape
func hammingLane2NNAVX2(s1, s2 *[HammingLanes]uint64, qt, rows []uint64)
