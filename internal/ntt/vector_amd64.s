#include "textflag.h"

// AVX2 kernels of the vector NTT engine. Coefficients stay in their
// []uint32 memory layout, eight to a ymm register; every value is below
// 2¹⁶ (the engine gates the kernels on 4q ≤ 2¹⁶), so the arithmetic runs
// on the low 16-bit word of each 32-bit lane with word instructions whose
// high words stay zero throughout. A twiddle w carries the 16-bit Shoup
// companion w' = ⌊w·2¹⁶/q⌋ in its high word, and v·w mod q lands in the
// lazy range [0, 2q) as lo16(v·w) − lo16(hi16(v·w')·q); the companion's
// presence in the high word is harmless because every coefficient's high
// word is zero. Lazy folds are VPMINUW(x, x−2q): the wrapped difference of
// an x below the bound exceeds x, so the minimum picks the reduced value
// without a compare or a branch. The only jumps below are loop control,
// which TestAVX2KernelsHaveNoDataBranches checks against this source.
//
// Y15 holds q and Y14 holds 2q in every lane for the whole transform.

// MULSHOUP sets V = V·w mod q in [0, 2q), with T as scratch; W holds the
// twiddle words and WS = W >> 16 the companions.
#define MULSHOUP(V, W, WS, T) \
	VPMULHUW WS, V, T; \
	VPMULLW  W, V, V;  \
	VPMULLW  Y15, T, T; \
	VPSUBW   T, V, V

// FOLD sets V = V − B when V ≥ B, for V < 2B ≤ 2¹⁶.
#define FOLD(V, B, T) \
	VPSUBW  B, V, T; \
	VPMINUW T, V, V

// FWD_BF is the Cooley-Tukey butterfly (X, Y) ← (x + wy, x − wy), lazy.
#define FWD_BF(X, Y, W, WS, T) \
	MULSHOUP(Y, W, WS, T); \
	VPSUBW Y, X, T;        \
	VPADDW Y, X, X;        \
	VPADDW Y14, T, Y;      \
	VPMINUW T, Y, Y;       \
	FOLD(X, Y14, T)

// INV_BF is the Gentleman-Sande butterfly (X, Y) ← (x + y, w(x − y)), lazy.
#define INV_BF(X, Y, W, WS, T) \
	VPSUBW Y, X, T;   \
	VPADDW Y, X, X;   \
	VPADDW Y14, T, Y; \
	FOLD(X, Y14, T);  \
	MULSHOUP(Y, W, WS, T)

// The last four stages (strides 8, 4, 2, 1) run per 16-coefficient block
// A = a[16b:16b+8], B = a[16b+8:16b+16] held in two registers. Between
// stages a 2×2 transpose of 128-, 64- or 32-bit elements moves each
// butterfly's two inputs into the same lane of a lo and a hi register:
//
//	stride 8: lo [A0-7]              hi [B0-7]
//	stride 4: lo [A0-3 | B0-3]       hi [A4-7 | B4-7]      TRN128
//	stride 2: lo [A0 A1 A4 A5 | B…]  hi [A2 A3 A6 A7 | B…] TRN64
//	stride 1: lo [A0 A2 A4 A6 | B…]  hi [A1 A3 A5 A7 | B…] TRN32
//
// Each transpose is its own inverse, so the forward kernel undoes them in
// reverse order before storing and the inverse kernel applies them in
// reverse order after loading. Stride 1 then meets its eight twiddles in
// table order, strides 4 and 2 gather theirs with VPERMD (lanes4, lanes2)
// and stride 8 broadcasts one.

// TRN128 sets U = [X.lo128, Y.lo128], V = [X.hi128, Y.hi128].
#define TRN128(X, Y, U, V) \
	VPERM2I128 $0x20, Y, X, U; \
	VPERM2I128 $0x31, Y, X, V

// TRN64 sets U = [X.q0, Y.q0 | X.q2, Y.q2], V = [X.q1, Y.q1 | X.q3, Y.q3].
#define TRN64(X, Y, U, V) \
	VPUNPCKLQDQ Y, X, U; \
	VPUNPCKHQDQ Y, X, V

// TRN32 sets U = [X0, Y0, X2, Y2 | …], V = [X1, Y1, X3, Y3 | …].
#define TRN32(X, Y, U, V) \
	VPSLLQ   $32, Y, U;       \
	VPBLENDD $0xAA, U, X, U;  \
	VPSRLQ   $32, X, V;       \
	VPBLENDD $0xAA, Y, V, V

// TWIDDLES splits packed twiddles W into W and companions WS = W >> 16.
#define TWIDDLES(W, WS) \
	VPSRLD $16, W, WS

// lanes4 and lanes2 map each stride-4 and stride-2 lane to its twiddle,
// counted from the block's first twiddle of that stage.
DATA lanes4<>+0x00(SB)/8, $0x0000000000000000
DATA lanes4<>+0x08(SB)/8, $0x0000000000000000
DATA lanes4<>+0x10(SB)/8, $0x0000000100000001
DATA lanes4<>+0x18(SB)/8, $0x0000000100000001
GLOBL lanes4<>(SB), RODATA|NOPTR, $32

DATA lanes2<>+0x00(SB)/8, $0x0000000000000000
DATA lanes2<>+0x08(SB)/8, $0x0000000100000001
DATA lanes2<>+0x10(SB)/8, $0x0000000200000002
DATA lanes2<>+0x18(SB)/8, $0x0000000300000003
GLOBL lanes2<>(SB), RODATA|NOPTR, $32

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

// func forwardAVX2(a []uint32, tw []uint32, q uint32)
//
// tw[k] packs PsiRev[k] with its companion (see newSIMDTables).
TEXT ·forwardAVX2(SB), NOSPLIT, $0-52
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	MOVQ         tw_base+24(FP), SI
	MOVL         q+48(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VPADDD       Y15, Y15, Y14

	// Wide stages, stride ≥ 16: BX groups, DX bytes from lo to hi.
	MOVQ CX, DX
	SHLQ $1, DX
	MOVQ $1, BX

fwdStage:
	CMPQ DX, $32
	JLE  fwdTail
	MOVQ DI, R9
	LEAQ (SI)(BX*4), R10
	MOVQ BX, R11

fwdGroup:
	VPBROADCASTD (R10), Y12
	TWIDDLES(Y12, Y13)
	MOVQ R9, R13
	MOVQ DX, R14

fwdInner:
	VMOVDQU (R13), Y0
	VMOVDQU 32(R13), Y2
	VMOVDQU (R13)(DX*1), Y1
	VMOVDQU 32(R13)(DX*1), Y3
	FWD_BF(Y0, Y1, Y12, Y13, Y4)
	FWD_BF(Y2, Y3, Y12, Y13, Y5)
	VMOVDQU Y0, (R13)
	VMOVDQU Y2, 32(R13)
	VMOVDQU Y1, (R13)(DX*1)
	VMOVDQU Y3, 32(R13)(DX*1)
	ADDQ $64, R13
	SUBQ $64, R14
	JNZ  fwdInner

	LEAQ (R9)(DX*2), R9
	ADDQ $4, R10
	DECQ R11
	JNZ  fwdGroup
	SHLQ $1, BX
	SHRQ $1, DX
	JMP  fwdStage

	// Tail: BX = n/16 blocks. Block b's stride-8, -4, -2 and -1 twiddles
	// start at tw[n/16+b], tw[n/8+2b], tw[n/4+4b] and tw[n/2+8b]: R10,
	// R11, R12 and R13.
fwdTail:
	LEAQ    (SI)(BX*4), R10
	LEAQ    (SI)(BX*8), R11
	MOVQ    BX, AX
	SHLQ    $4, AX
	LEAQ    (SI)(AX*1), R12
	LEAQ    (SI)(AX*2), R13
	VMOVDQU lanes4<>(SB), Y9
	VMOVDQU lanes2<>(SB), Y10
	MOVQ    DI, R9

fwdBlock:
	VMOVDQU (R9), Y0
	VMOVDQU 32(R9), Y1
	VPBROADCASTD (R10), Y12
	TWIDDLES(Y12, Y13)
	FWD_BF(Y0, Y1, Y12, Y13, Y4)

	TRN128(Y0, Y1, Y2, Y3)
	VPERMD (R11), Y9, Y12
	TWIDDLES(Y12, Y13)
	FWD_BF(Y2, Y3, Y12, Y13, Y4)

	TRN64(Y2, Y3, Y0, Y1)
	VPERMD (R12), Y10, Y12
	TWIDDLES(Y12, Y13)
	FWD_BF(Y0, Y1, Y12, Y13, Y4)

	TRN32(Y0, Y1, Y2, Y3)
	VMOVDQU (R13), Y12
	TWIDDLES(Y12, Y13)
	FWD_BF(Y2, Y3, Y12, Y13, Y4)

	// The forward transform's only normalization: [0, 2q) → [0, q).
	FOLD(Y2, Y15, Y4)
	FOLD(Y3, Y15, Y5)

	TRN32(Y2, Y3, Y0, Y1)
	TRN64(Y0, Y1, Y2, Y3)
	TRN128(Y2, Y3, Y0, Y1)
	VMOVDQU Y0, (R9)
	VMOVDQU Y1, 32(R9)

	ADDQ $64, R9
	ADDQ $4, R10
	ADDQ $8, R11
	ADDQ $16, R12
	ADDQ $32, R13
	DECQ BX
	JNZ  fwdBlock

	VZEROUPPER
	RET

// func inverseAVX2(a []uint32, tw []uint32, q uint32)
//
// tw[k] packs PsiInvRev[k] with its companion, except that tw[0] and tw[1]
// pack n⁻¹ and n⁻¹·ψ⁻¹: the final stage scales instead of multiplying by
// its own twiddle.
TEXT ·inverseAVX2(SB), NOSPLIT, $0-52
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	MOVQ         tw_base+24(FP), SI
	MOVL         q+48(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VPADDD       Y15, Y15, Y14

	// Tail: n/16 blocks, twiddle pointers as in forwardAVX2.
	MOVQ    CX, BX
	SHRQ    $4, BX
	LEAQ    (SI)(BX*4), R10
	LEAQ    (SI)(BX*8), R11
	MOVQ    BX, AX
	SHLQ    $4, AX
	LEAQ    (SI)(AX*1), R12
	LEAQ    (SI)(AX*2), R13
	VMOVDQU lanes4<>(SB), Y9
	VMOVDQU lanes2<>(SB), Y10
	MOVQ    DI, R9

invBlock:
	VMOVDQU (R9), Y0
	VMOVDQU 32(R9), Y1
	TRN128(Y0, Y1, Y2, Y3)
	TRN64(Y2, Y3, Y0, Y1)
	TRN32(Y0, Y1, Y2, Y3)
	VMOVDQU (R13), Y12
	TWIDDLES(Y12, Y13)
	INV_BF(Y2, Y3, Y12, Y13, Y4)

	TRN32(Y2, Y3, Y0, Y1)
	VPERMD (R12), Y10, Y12
	TWIDDLES(Y12, Y13)
	INV_BF(Y0, Y1, Y12, Y13, Y4)

	TRN64(Y0, Y1, Y2, Y3)
	VPERMD (R11), Y9, Y12
	TWIDDLES(Y12, Y13)
	INV_BF(Y2, Y3, Y12, Y13, Y4)

	TRN128(Y2, Y3, Y0, Y1)
	VPBROADCASTD (R10), Y12
	TWIDDLES(Y12, Y13)
	INV_BF(Y0, Y1, Y12, Y13, Y4)
	VMOVDQU Y0, (R9)
	VMOVDQU Y1, 32(R9)

	ADDQ $64, R9
	ADDQ $4, R10
	ADDQ $8, R11
	ADDQ $16, R12
	ADDQ $32, R13
	DECQ BX
	JNZ  invBlock

	// Wide stages, stride 16 up to n/4: BX groups, DX bytes from lo to hi.
	MOVQ CX, BX
	SHRQ $5, BX
	MOVQ $64, DX

invStage:
	CMPQ BX, $1
	JLE  invFinal
	MOVQ DI, R9
	LEAQ (SI)(BX*4), R10
	MOVQ BX, R11

invGroup:
	VPBROADCASTD (R10), Y12
	TWIDDLES(Y12, Y13)
	MOVQ R9, R13
	MOVQ DX, R14

invInner:
	VMOVDQU (R13), Y0
	VMOVDQU 32(R13), Y2
	VMOVDQU (R13)(DX*1), Y1
	VMOVDQU 32(R13)(DX*1), Y3
	INV_BF(Y0, Y1, Y12, Y13, Y4)
	INV_BF(Y2, Y3, Y12, Y13, Y5)
	VMOVDQU Y0, (R13)
	VMOVDQU Y2, 32(R13)
	VMOVDQU Y1, (R13)(DX*1)
	VMOVDQU Y3, 32(R13)(DX*1)
	ADDQ $64, R13
	SUBQ $64, R14
	JNZ  invInner

	LEAQ (R9)(DX*2), R9
	ADDQ $4, R10
	DECQ R11
	JNZ  invGroup
	SHRQ $1, BX
	SHLQ $1, DX
	JMP  invStage

	// Final stage (stride n/2) fused with the n⁻¹ scaling: the low half
	// scales by n⁻¹, the high half by n⁻¹·ψ⁻¹, and both land in [0, q).
invFinal:
	VPBROADCASTD (SI), Y10
	TWIDDLES(Y10, Y11)
	VPBROADCASTD 4(SI), Y12
	TWIDDLES(Y12, Y13)
	MOVQ DI, R13
	MOVQ DX, R14

invFinalLoop:
	VMOVDQU (R13), Y0
	VMOVDQU 32(R13), Y2
	VMOVDQU (R13)(DX*1), Y1
	VMOVDQU 32(R13)(DX*1), Y3
	VPSUBW Y1, Y0, Y4
	VPADDW Y1, Y0, Y0
	VPADDW Y14, Y4, Y1
	VPSUBW Y3, Y2, Y5
	VPADDW Y3, Y2, Y2
	VPADDW Y14, Y5, Y3
	MULSHOUP(Y0, Y10, Y11, Y4)
	MULSHOUP(Y2, Y10, Y11, Y5)
	MULSHOUP(Y1, Y12, Y13, Y6)
	MULSHOUP(Y3, Y12, Y13, Y7)
	FOLD(Y0, Y15, Y4)
	FOLD(Y2, Y15, Y5)
	FOLD(Y1, Y15, Y6)
	FOLD(Y3, Y15, Y7)
	VMOVDQU Y0, (R13)
	VMOVDQU Y2, 32(R13)
	VMOVDQU Y1, (R13)(DX*1)
	VMOVDQU Y3, 32(R13)(DX*1)
	ADDQ $64, R13
	SUBQ $64, R14
	JNZ  invFinalLoop

	VZEROUPPER
	RET

// func pointwiseMulAVX2(c []uint32, a []uint32, b []uint32, q uint32, qInv uint32, r uint32)
//
// c = a∘b for a, b < 2q: a 16-bit Montgomery product (xy − mq)/2¹⁶ with
// m = lo16(xy)·q⁻¹, exact because lo16(mq) = lo16(xy), lands in (−q, q);
// adding q and a Shoup multiply by r (2¹⁶ mod q, packed with its
// companion) undo the Montgomery factor, and a fold makes it canonical.
TEXT ·pointwiseMulAVX2(SB), NOSPLIT, $0-84
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), DX
	MOVL         q+72(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVL         qInv+76(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         r+80(FP), AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	TWIDDLES(Y11, Y12)

pwLoop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU (DX), Y2
	VMOVDQU 32(DX), Y3
	VPMULLW  Y2, Y0, Y4
	VPMULLW  Y3, Y1, Y5
	VPMULHUW Y2, Y0, Y0
	VPMULHUW Y3, Y1, Y1
	VPMULLW  Y13, Y4, Y4
	VPMULLW  Y13, Y5, Y5
	VPMULHUW Y15, Y4, Y4
	VPMULHUW Y15, Y5, Y5
	VPSUBW   Y4, Y0, Y0
	VPSUBW   Y5, Y1, Y1
	VPADDW   Y15, Y0, Y0
	VPADDW   Y15, Y1, Y1
	MULSHOUP(Y0, Y11, Y12, Y4)
	MULSHOUP(Y1, Y11, Y12, Y5)
	FOLD(Y0, Y15, Y4)
	FOLD(Y1, Y15, Y5)
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $16, CX
	JNZ  pwLoop

	VZEROUPPER
	RET
