#include "textflag.h"

// Every float32 kernel keeps one accumulator chain per lane and
// multiplies and adds with separate instructions (never FMA), so each
// lane rounds exactly as the scalar Go twin does. The float64 gradient
// kernel fuses exactly where package math's exp_amd64.s does.

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

// gradConst<> holds GradientSamples' constants, one 8-byte slot each,
// broadcast into a register where used. The float64 slots carry the
// exact bits of the constants in package math's hypot_amd64.s,
// atan.go, atan2.go and exp_amd64.s.
DATA gradConst<>+0x00(SB)/8, $0x7fffffffffffffff // |x| mask
DATA gradConst<>+0x08(SB)/8, $0x3ff0000000000000 // 1
DATA gradConst<>+0x10(SB)/8, $0x3fe51eb851eb851f // 0.66
DATA gradConst<>+0x18(SB)/8, $0x4003504f333f9de6 // tan(3π/8)
DATA gradConst<>+0x20(SB)/8, $0xbfec007fa1f72594 // xatan P0
DATA gradConst<>+0x28(SB)/8, $0xc03028545b6b807a // P1
DATA gradConst<>+0x30(SB)/8, $0xc052c08c36880273 // P2
DATA gradConst<>+0x38(SB)/8, $0xc05eb8bf2d05ba25 // P3
DATA gradConst<>+0x40(SB)/8, $0xc0503669fd28ec8e // P4
DATA gradConst<>+0x48(SB)/8, $0x4038dbc45b14603c // xatan Q0
DATA gradConst<>+0x50(SB)/8, $0x4064a0dd43b8fa25 // Q1
DATA gradConst<>+0x58(SB)/8, $0x407b0e18d2e2be3b // Q2
DATA gradConst<>+0x60(SB)/8, $0x407e563f13b049ea // Q3
DATA gradConst<>+0x68(SB)/8, $0x4068519efbbd62ec // Q4
DATA gradConst<>+0x70(SB)/8, $0x3ff921fb54442d18 // π/2
DATA gradConst<>+0x78(SB)/8, $0x3fe921fb54442d18 // π/4
DATA gradConst<>+0x80(SB)/8, $0x400921fb54442d18 // π
DATA gradConst<>+0x88(SB)/8, $0x3c91a62633145c07 // Morebits
DATA gradConst<>+0x90(SB)/8, $0x3c81a62633145c07 // 0.5*Morebits
DATA gradConst<>+0x98(SB)/8, $0x3ff71547652b82fe // LOG2E
DATA gradConst<>+0xa0(SB)/8, $0x3fe62e42fefa3000 // LN2U
DATA gradConst<>+0xa8(SB)/8, $0x3d53de6af278ece6 // LN2L
DATA gradConst<>+0xb0(SB)/8, $0x3fb0000000000000 // 0.0625
DATA gradConst<>+0xb8(SB)/8, $0x3efa01a01a01a01a // 1/8!
DATA gradConst<>+0xc0(SB)/8, $0x3f2a01a01a01a01a // 1/7!
DATA gradConst<>+0xc8(SB)/8, $0x3f56c16c16c16c17 // 1/6!
DATA gradConst<>+0xd0(SB)/8, $0x3f81111111111111 // 1/5!
DATA gradConst<>+0xd8(SB)/8, $0x3fa5555555555555 // 1/4!
DATA gradConst<>+0xe0(SB)/8, $0x3fc5555555555555 // 1/3!
DATA gradConst<>+0xe8(SB)/8, $0x3fe0000000000000 // 0.5
DATA gradConst<>+0xf0(SB)/8, $0x4000000000000000 // 2
DATA gradConst<>+0xf8(SB)/4, $1023               // exponent bias
DATA gradConst<>+0xfc(SB)/4, $2047               // biased exponent of Inf
GLOBL gradConst<>(SB), RODATA|NOPTR, $256

// tailMask<> yields the lane mask of a block holding the last r < 4
// samples: the 4 quadwords at byte offset 24-8r are r all-ones lanes,
// then zeros.
DATA tailMask<>+0x00(SB)/8, $-1
DATA tailMask<>+0x08(SB)/8, $-1
DATA tailMask<>+0x10(SB)/8, $-1
DATA tailMask<>+0x18(SB)/8, $0
DATA tailMask<>+0x20(SB)/8, $0
DATA tailMask<>+0x28(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// EXPSTEP is one Horner step of exp's Taylor polynomial in Y3 over the
// reduced argument Y2, fused as VFMADD213SD fuses it in exp_amd64.s.
#define EXPSTEP(off) \
	VBROADCASTSD off(R12), Y7; \
	VFMADD213PD  Y7, Y2, Y3

// POLYSTEP is one Horner step of an xatan polynomial in acc over z
// (Y4), multiply then add with two roundings, as Go compiles atan.go
// on amd64.
#define POLYSTEP(off, acc) \
	VMULPD       Y4, acc, acc; \
	VBROADCASTSD off(R12), Y10; \
	VADDPD       Y10, acc, acc

// func gradientSamplesAVX2(mag, ori, wgt, gx, gy, arg []float64) (done int)
//
// Four samples per block: mag = Hypot(gx, gy), ori = Atan2(gy, gx),
// wgt = Exp(arg), each lane the op sequence of package math on amd64
// with FMA. The last n%4 samples take one block under a lane mask, so
// nothing outside the slices is read or written. A block holding a
// lane the sequences below do not cover is left unwritten, and the
// kernel returns its index for the Go twin; otherwise it returns
// len(mag). A lane is not covered when gx or gy is not finite, or when
// exp's k+1023 lies outside [1, 2046], which is exactly where
// exp_amd64.s leaves its main path for its non-finite, overflow or
// denormal branch.
TEXT ·gradientSamplesAVX2(SB), NOSPLIT, $0-152
	MOVQ         mag_base+0(FP), DI
	MOVQ         mag_len+8(FP), CX
	MOVQ         ori_base+24(FP), SI
	MOVQ         wgt_base+48(FP), R8
	MOVQ         gx_base+72(FP), R9
	MOVQ         gy_base+96(FP), R10
	MOVQ         arg_base+120(FP), R11
	LEAQ         gradConst<>(SB), R12
	VBROADCASTSD 0x00(R12), Y14 // |x| mask
	VBROADCASTSD 0x08(R12), Y13 // 1
	VXORPD       Y12, Y12, Y12  // 0
	XORQ         AX, AX         // sample index

gradblock:
	MOVQ    CX, DX
	SUBQ    AX, DX // samples left
	JLE     graddone
	CMPQ    DX, $4
	JLT     gradtailload
	VMOVUPD (R9)(AX*8), Y0
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD (R11)(AX*8), Y2
	JMP     gradcheck

gradtailload:
	LEAQ       tailMask<>(SB), BX
	NEGQ       DX
	VMOVDQU    24(BX)(DX*8), Y15 // lane mask, kept through the block
	VMASKMOVPD (R9)(AX*8), Y15, Y0
	VMASKMOVPD (R10)(AX*8), Y15, Y1
	VMASKMOVPD (R11)(AX*8), Y15, Y2

gradcheck:
	// Masked-off lanes read zero, which every sequence covers.
	VSUBPD       Y0, Y0, Y3
	VSUBPD       Y1, Y1, Y4
	VADDPD       Y4, Y3, Y3
	VCMPPD       $3, Y3, Y3, Y3 // NaN: gx or gy not finite
	VMOVMSKPD    Y3, BX
	VBROADCASTSD 0x98(R12), Y5
	VMULPD       Y2, Y5, Y5     // LOG2E*x
	VCVTPD2DQY   Y5, X5         // k, rounded to nearest as CVTSD2SL rounds
	VPBROADCASTD 0xf8(R12), X6
	VPADDD       X6, X5, X6     // k+1023
	VPBROADCASTD 0xfc(R12), X7
	VPCMPGTD     X6, X7, X7     // k+1023 < 2047
	VPCMPGTD     X12, X6, X3    // k+1023 > 0
	VPAND        X3, X7, X7
	VMOVMSKPS    X7, DX
	XORL         $15, DX
	ORL          DX, BX
	JNZ          graddone

	// wgt = Exp(arg), exp_amd64.s's FMA path: x - k*ln2 in two fused
	// steps, x/16, the Taylor polynomial, four squarings of 1+x, and a
	// multiply by 2**k built from the biased exponent.
	VCVTDQ2PD    X5, Y5
	VPMOVSXDQ    X6, Y6
	VPSLLQ       $52, Y6, Y6
	VBROADCASTSD 0xa0(R12), Y7
	VFNMADD231PD Y7, Y5, Y2
	VBROADCASTSD 0xa8(R12), Y7
	VFNMADD231PD Y7, Y5, Y2
	VBROADCASTSD 0xb0(R12), Y7
	VMULPD       Y7, Y2, Y2
	VBROADCASTSD 0xb8(R12), Y3
	EXPSTEP(0xc0)
	EXPSTEP(0xc8)
	EXPSTEP(0xd0)
	EXPSTEP(0xd8)
	EXPSTEP(0xe0)
	EXPSTEP(0xe8)
	VFMADD213PD  Y13, Y2, Y3
	VMULPD       Y3, Y2, Y2
	VBROADCASTSD 0xf0(R12), Y7
	VADDPD       Y7, Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       Y7, Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       Y7, Y2, Y3
	VMULPD       Y3, Y2, Y2
	VADDPD       Y7, Y2, Y3
	VFMADD213PD  Y13, Y3, Y2
	VMULPD       Y6, Y2, Y2

	// mag = Hypot(gx, gy), hypot_amd64.s: p*sqrt(1+(q/p)²) with p the
	// larger and q the smaller magnitude, and 0 when both are zero.
	VANDPD  Y14, Y0, Y8
	VANDPD  Y14, Y1, Y9
	VMAXPD  Y9, Y8, Y10
	VMINPD  Y9, Y8, Y11
	VDIVPD  Y10, Y11, Y11
	VMULPD  Y11, Y11, Y11
	VADDPD  Y13, Y11, Y11
	VSQRTPD Y11, Y11
	VMULPD  Y11, Y10, Y11
	VCMPPD  $0, Y12, Y10, Y3
	VANDNPD Y11, Y3, Y11

	// ori = Atan2(gy, gx), atan2.go: q = atan(t) for t = gy/gx, where
	// atan(t) = copysign(satan(|t|), t) and satan's three branches
	// share one xatan call on u = |t|, 1/|t| or (|t|-1)/(|t|+1).
	VDIVPD       Y0, Y1, Y3     // t
	VANDPD       Y14, Y3, Y4    // a = |t|
	VBROADCASTSD 0x10(R12), Y5
	VCMPPD       $2, Y5, Y4, Y5 // a <= 0.66
	VBROADCASTSD 0x18(R12), Y6
	VCMPPD       $0x1e, Y6, Y4, Y6 // a > tan(3π/8)
	VSUBPD       Y13, Y4, Y7
	VADDPD       Y13, Y4, Y8
	VBLENDVPD    Y6, Y13, Y7, Y7
	VBLENDVPD    Y6, Y4, Y8, Y8
	VBLENDVPD    Y5, Y4, Y7, Y7
	VBLENDVPD    Y5, Y13, Y8, Y8
	VDIVPD       Y8, Y7, Y7     // u

	// xatan(u): z = u², z = z*P(z)/Q(z), u*z + u.
	VMULPD       Y7, Y7, Y4
	VBROADCASTSD 0x20(R12), Y8
	POLYSTEP(0x28, Y8)
	POLYSTEP(0x30, Y8)
	POLYSTEP(0x38, Y8)
	POLYSTEP(0x40, Y8)
	VBROADCASTSD 0x48(R12), Y9
	VADDPD       Y4, Y9, Y9
	POLYSTEP(0x50, Y9)
	POLYSTEP(0x58, Y9)
	POLYSTEP(0x60, Y9)
	POLYSTEP(0x68, Y9)
	VMULPD       Y8, Y4, Y4
	VDIVPD       Y9, Y4, Y4
	VMULPD       Y4, Y7, Y4
	VADDPD       Y7, Y4, Y4

	// satan: z, π/2 - z + Morebits, or π/4 + z + 0.5*Morebits.
	VBROADCASTSD 0x70(R12), Y8
	VSUBPD       Y4, Y8, Y8
	VBROADCASTSD 0x88(R12), Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 0x78(R12), Y9
	VADDPD       Y4, Y9, Y9
	VBROADCASTSD 0x90(R12), Y10
	VADDPD       Y10, Y9, Y9
	VBLENDVPD    Y6, Y8, Y9, Y9
	VBLENDVPD    Y5, Y4, Y9, Y9
	VANDNPD      Y3, Y14, Y3
	VORPD        Y3, Y9, Y3     // q = copysign(satan(a), t)

	// Quadrant: for gx < 0, q+π when q <= 0 and q-π otherwise. A gx of
	// -0 takes this blend too; the gx == 0 blend below overrides it.
	VBROADCASTSD 0x80(R12), Y10
	VADDPD       Y10, Y3, Y4
	VSUBPD       Y10, Y3, Y5
	VCMPPD       $2, Y12, Y3, Y6
	VBLENDVPD    Y6, Y4, Y5, Y4
	VBLENDVPD    Y0, Y4, Y3, Y3

	// Special cases in atan2.go's order of precedence: gy == 0 gives gy
	// for a gx with its sign bit clear and copysign(π, gy) otherwise;
	// else gx == 0 gives copysign(π/2, gy).
	VANDNPD      Y1, Y14, Y4    // sign of gy
	VBROADCASTSD 0x70(R12), Y5
	VORPD        Y4, Y5, Y5
	VCMPPD       $0, Y12, Y0, Y6
	VBLENDVPD    Y6, Y5, Y3, Y3
	VORPD        Y4, Y10, Y5
	VBLENDVPD    Y0, Y5, Y1, Y5
	VCMPPD       $0, Y12, Y1, Y6
	VBLENDVPD    Y6, Y5, Y3, Y3

	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JLT     gradtailstore
	VMOVUPD Y11, (DI)(AX*8)
	VMOVUPD Y3, (SI)(AX*8)
	VMOVUPD Y2, (R8)(AX*8)
	ADDQ    $4, AX
	JMP     gradblock

gradtailstore:
	VMASKMOVPD Y11, Y15, (DI)(AX*8)
	VMASKMOVPD Y3, Y15, (SI)(AX*8)
	VMASKMOVPD Y2, Y15, (R8)(AX*8)
	MOVQ       CX, AX

graddone:
	MOVQ AX, done+144(FP)
	VZEROUPPER
	RET
