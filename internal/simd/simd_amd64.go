package simd

// useAVX2 selects the assembly kernels. It is decided once, at package
// init, and never changes.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and FMA and the OS saves
// the YMM registers across context switches: CPUID.1:ECX FMA (bit 12),
// OSXSAVE (bit 27) and AVX (bit 28), XCR0 with the XMM and YMM state
// bits (1 and 2) set, and CPUID.(EAX=7,ECX=0):EBX AVX2 (bit 5). Where
// it holds, math.Exp takes its own FMA path (it needs AVX and FMA), so
// the gradient kernel's exp lanes and the Go twin agree.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<12) == 0 || ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
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

func gradientSamples(mag, ori, wgt, gx, gy, arg []float64) {
	if !useAVX2 {
		gradientSamplesGo(mag, ori, wgt, gx, gy, arg)
		return
	}
	for i := 0; i < len(mag); {
		i += gradientSamplesAVX2(mag[i:], ori[i:], wgt[i:], gx[i:], gy[i:], arg[i:])
		if i < len(mag) {
			// The block at i holds a lane the assembly does not cover.
			j := min(i+4, len(mag))
			gradientSamplesGo(mag[i:j], ori[i:j], wgt[i:j], gx[i:j], gy[i:j], arg[i:j])
			i = j
		}
	}
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

//go:noescape
func gradientSamplesAVX2(mag, ori, wgt, gx, gy, arg []float64) (done int)
