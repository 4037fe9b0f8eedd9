#include "textflag.h"

// Every kernel keeps one accumulator chain per lane and multiplies and
// adds with separate instructions (never FMA), so each lane rounds
// exactly as the scalar Go twin does.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func accumRowsAVX2(dst []float32, rows [][]float32, w []float32)
//
// dst[x] = Σ_k rows[k][x]·w[k]: blocks of 32 columns (four YMM
// accumulators), then blocks of 8, then single columns.
TEXT ·accumRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ rows_base+24(FP), SI
	MOVQ w_base+48(FP), R8
	MOVQ w_len+56(FP), R9
	XORQ AX, AX // x

accum32:
	LEAQ   32(AX), DX
	CMPQ   DX, BX
	JGT    accum8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10 // &rows[k]
	MOVQ   R8, R11 // &w[k]
	MOVQ   R9, CX  // taps left
	TESTQ  CX, CX
	JZ     accum32store

accum32tap:
	VBROADCASTSS (R11), Y4
	MOVQ         (R10), DX // rows[k]'s base
	VMULPS       (DX)(AX*4), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(DX)(AX*4), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(DX)(AX*4), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(DX)(AX*4), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $24, R10
	ADDQ         $4, R11
	DECQ         CX
	JNZ          accum32tap

accum32store:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	JMP     accum32

accum8:
	LEAQ   8(AX), DX
	CMPQ   DX, BX
	JGT    accum1
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   R8, R11
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     accum8store

accum8tap:
	VBROADCASTSS (R11), Y4
	MOVQ         (R10), DX
	VMULPS       (DX)(AX*4), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $24, R10
	ADDQ         $4, R11
	DECQ         CX
	JNZ          accum8tap

accum8store:
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     accum8

accum1:
	CMPQ   AX, BX
	JGE    accumdone
	VXORPS X0, X0, X0
	MOVQ   SI, R10
	MOVQ   R8, R11
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     accum1store

accum1tap:
	VMOVSS (R11), X4
	MOVQ   (R10), DX
	VMULSS (DX)(AX*4), X4, X5
	VADDSS X5, X0, X0
	ADDQ   $24, R10
	ADDQ   $4, R11
	DECQ   CX
	JNZ    accum1tap

accum1store:
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    accum1

accumdone:
	VZEROUPPER
	RET

// FOLD folds the lane distances d into the running best Y12 and
// second-best Y13:
//
//	t  = s1 > d ? s1 : d   (VMAXPS)
//	s1 = d < s1 ? d : s1   (VMINPS)
//	s2 = t < s2 ? t : s2   (VMINPS)
//
// VMINPS and VMAXPS return their first Go operand whenever the
// comparison fails, on equal values or a NaN, so this is lane by lane
// the scalar update "if d < s1 { s2, s1 = s1, d } else if d < s2
// { s2 = d }", ties and NaN distances included.
#define FOLD(d) \
	VMAXPS d, Y12, Y9; \
	VMINPS Y12, d, Y12; \
	VMINPS Y13, Y9, Y13

// func lane2NNAVX2(s1, s2 *[8]float32, qt, rows []float32, dim int)
//
// Four rows per step, one YMM accumulator per row, each lane of which
// sums (q[i]-row[i])² over ascending i; the four distance vectors then
// fold in row order. Leftover rows go one at a time.
TEXT ·lane2NNAVX2(SB), NOSPLIT, $0-72
	MOVQ    s1+0(FP), AX
	MOVQ    s2+8(FP), DI
	MOVQ    qt_base+16(FP), R8
	MOVQ    rows_base+40(FP), SI
	MOVQ    rows_len+48(FP), DX
	MOVQ    dim+64(FP), R9
	LEAQ    (SI)(DX*4), DX // end of rows
	SHLQ    $2, R9         // bytes per row
	LEAQ    (R8)(R9*8), BX // end of qt: 8 lanes per component
	VMOVUPS (AX), Y12
	VMOVUPS (DI), Y13

rows4:
	LEAQ   (SI)(R9*4), R10
	CMPQ   R10, DX
	JHI    rows1
	LEAQ   (SI)(R9*1), R10  // row 1
	LEAQ   (R10)(R9*1), R11 // row 2
	LEAQ   (R11)(R9*1), R12 // row 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R8, CX           // &qt[i*8]
	XORQ   R13, R13         // i*4

comp4:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (SI)(R13*1), Y4
	VBROADCASTSS (R10)(R13*1), Y5
	VBROADCASTSS (R11)(R13*1), Y6
	VBROADCASTSS (R12)(R13*1), Y7
	VSUBPS       Y4, Y8, Y4 // q - row
	VSUBPS       Y5, Y8, Y5
	VSUBPS       Y6, Y8, Y6
	VSUBPS       Y7, Y8, Y7
	VMULPS       Y4, Y4, Y4
	VMULPS       Y5, Y5, Y5
	VMULPS       Y6, Y6, Y6
	VMULPS       Y7, Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $32, CX
	ADDQ         $4, R13
	CMPQ         CX, BX
	JNE          comp4

	FOLD(Y0)
	FOLD(Y1)
	FOLD(Y2)
	FOLD(Y3)
	LEAQ (SI)(R9*4), SI
	JMP  rows4

rows1:
	CMPQ   SI, DX
	JCC    lanedone
	VXORPS Y0, Y0, Y0
	MOVQ   R8, CX
	XORQ   R13, R13

comp1:
	VMOVUPS      (CX), Y8
	VBROADCASTSS (SI)(R13*1), Y4
	VSUBPS       Y4, Y8, Y4
	VMULPS       Y4, Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $32, CX
	ADDQ         $4, R13
	CMPQ         CX, BX
	JNE          comp1

	FOLD(Y0)
	ADDQ R9, SI
	JMP  rows1

lanedone:
	VMOVUPS Y12, (AX)
	VMOVUPS Y13, (DI)
	VZEROUPPER
	RET

// nibblePop<> holds the popcount of every nibble 0-15, once per
// 128-bit half: the VPSHUFB lookup table of Muła, Kurz and Lemire,
// "Faster Population Counts Using AVX2 Instructions" (2018). The low
// nibble mask follows it. Both load with VEX moves: a legacy SSE
// instruction between 256-bit ones costs a state transition.
DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x10(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x18(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x20(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibblePop<>+0x28(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibblePop<>+0x30(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibblePop<>+0x38(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibblePop<>(SB), RODATA|NOPTR, $64

// POPBYTES replaces every byte of x with its popcount, via t: look up
// the low and the high nibble in the table Y14 (Y15 masks 0x0f).
#define POPBYTES(x, t) \
	VPSRLW  $4, x, t; \
	VPAND   Y15, x, x; \
	VPAND   Y15, t, t; \
	VPSHUFB x, Y14, x; \
	VPSHUFB t, Y14, t; \
	VPADDB  t, x, x

// func hammingLane2NNAVX2(s1, s2 *[4]uint64, qt, rows []uint64)
//
// Four-word rows only. Y0-Y3 hold query words 0-3 of the four lanes.
// Per gallery row: broadcast each word, XOR it with its query word,
// count bits per byte, add the four words' byte counts (at most 32 a
// byte) and sum each lane's eight bytes with VPSADBW against zero.
// The four distances then fold branch-free into the best Y12 and
// second-best Y13 with unsigned 32-bit min and max: every lane's upper
// half is zero, so the 32-bit compare is the 64-bit one.
//
//	t  = max(s1, d)
//	s2 = min(s2, t)
//	s1 = min(s1, d)
TEXT ·hammingLane2NNAVX2(SB), NOSPLIT, $0-64
	MOVQ         s1+0(FP), AX
	MOVQ         s2+8(FP), DI
	MOVQ         qt_base+16(FP), R8
	MOVQ         rows_base+40(FP), SI
	MOVQ         rows_len+48(FP), DX
	LEAQ         (SI)(DX*8), DX // end of rows
	VMOVDQU      (R8), Y0
	VMOVDQU      32(R8), Y1
	VMOVDQU      64(R8), Y2
	VMOVDQU      96(R8), Y3
	VMOVDQU      nibblePop<>+0(SB), Y14
	VMOVDQU      nibblePop<>+32(SB), Y15
	VPXOR        Y11, Y11, Y11 // zero, for VPSADBW
	VMOVDQU      (AX), Y12
	VMOVDQU      (DI), Y13

hamrow:
	CMPQ         SI, DX
	JCC          hamdone
	VPBROADCASTQ (SI), Y4
	VPBROADCASTQ 8(SI), Y5
	VPBROADCASTQ 16(SI), Y6
	VPBROADCASTQ 24(SI), Y7
	VPXOR        Y0, Y4, Y4
	VPXOR        Y1, Y5, Y5
	VPXOR        Y2, Y6, Y6
	VPXOR        Y3, Y7, Y7
	POPBYTES(Y4, Y8)
	POPBYTES(Y5, Y9)
	POPBYTES(Y6, Y10)
	POPBYTES(Y7, Y8)
	VPADDB       Y5, Y4, Y4
	VPADDB       Y7, Y6, Y6
	VPADDB       Y6, Y4, Y4
	VPSADBW      Y11, Y4, Y4
	VPMAXUD      Y4, Y12, Y9
	VPMINUD      Y9, Y13, Y13
	VPMINUD      Y4, Y12, Y12
	ADDQ         $32, SI
	JMP          hamrow

hamdone:
	VMOVDQU Y12, (AX)
	VMOVDQU Y13, (DI)
	VZEROUPPER
	RET
