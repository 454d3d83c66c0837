//go:build amd64 && !purego

#include "textflag.h"

// The bit-plane row kernel. A class row is b planes of words words each,
// plane j at byte j·stride (stride = 8·words); the query is its lo plane
// then its hi plane, the hi plane at byte stride.
//
// Each step reads eight words of the query's lo plane into Z16 and of its
// hi plane into Z17, once, and for every class plane j adds
// VPOPCNTQ(lo ∧ C_j) into L_j and VPOPCNTQ(hi ∧ C_j) into H_j, per 64-bit
// lane. A plane count below eight skips the top planes' steps. The tail
// step reads its words through the opmask K1 with zeroing, so no load
// touches a word past the row or the query, and the masked-off lanes add
// nothing.
//
// Registers: BX the query step, SI class plane 0's step, DI plane 4's,
// R9 stride, R10 3·stride, CX words left, R8 b. L_j is Zj and H_j is
// Z(8+j); Z18 and Z19 are scratch, Z20 the sum.

// PLANE adds class plane j's step at addr into L and H.
#define PLANE(addr, L, H) \
	VMOVDQU64.Z addr, K1, Z18; \
	VPANDQ      Z16, Z18, Z19; \
	VPANDQ      Z17, Z18, Z18; \
	VPOPCNTQ    Z19, Z19; \
	VPOPCNTQ    Z18, Z18; \
	VPADDQ      Z19, L, L; \
	VPADDQ      Z18, H, H

// TOP starts the sum at the top plane, weight −1: Z20 = 2·H − L.
#define TOP(L, H) \
	VPADDQ H, H, Z20; \
	VPSUBQ L, Z20, Z20

// HORNER steps the sum down one plane: Z20 = 2·Z20 + L − 2·H.
#define HORNER(L, H) \
	VPADDQ Z20, Z20, Z20; \
	VPADDQ L, Z20, Z20; \
	VPSUBQ H, Z20, Z20; \
	VPSUBQ H, Z20, Z20

// func rowDot512(q, row []uint64, b int) int64
TEXT ·rowDot512(SB), NOSPLIT, $0-64
	MOVQ q_base+0(FP), BX
	MOVQ q_len+8(FP), CX
	SHRQ $1, CX
	MOVQ row_base+24(FP), SI
	MOVQ b+48(FP), R8
	LEAQ 0(CX*8), R9
	LEAQ (R9)(R9*2), R10
	LEAQ (SI)(R9*4), DI

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   $0xFF, AX
	KMOVW  AX, K1

step:
	CMPQ  CX, $8
	JGE   planes
	TESTQ CX, CX
	JEQ   sum

	// The tail: K1 keeps the CX words left.
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	MOVQ  $8, CX

planes:
	VMOVDQU64.Z (BX), K1, Z16
	VMOVDQU64.Z (BX)(R9*1), K1, Z17
	CMPQ R8, $8
	JLT  plane6
	PLANE((DI)(R10*1), Z7, Z15)

plane6:
	CMPQ R8, $7
	JLT  plane5
	PLANE((DI)(R9*2), Z6, Z14)

plane5:
	CMPQ R8, $6
	JLT  plane4
	PLANE((DI)(R9*1), Z5, Z13)

plane4:
	CMPQ R8, $5
	JLT  plane3
	PLANE((DI), Z4, Z12)

plane3:
	CMPQ R8, $4
	JLT  plane2
	PLANE((SI)(R10*1), Z3, Z11)

plane2:
	CMPQ R8, $3
	JLT  plane1
	PLANE((SI)(R9*2), Z2, Z10)

plane1:
	CMPQ R8, $2
	JLT  plane0
	PLANE((SI)(R9*1), Z1, Z9)

plane0:
	PLANE((SI), Z0, Z8)
	ADDQ $64, BX
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  step

	// Weigh the planes by Horner's rule, top plane first: plane j
	// weighs 2^j, the top one −2^(b−1), and plane j's lane sums are
	// L_j − 2·H_j.
sum:
	CMPQ R8, $8
	JNE  top7
	TOP(Z7, Z15)
	JMP  horner6

top7:
	CMPQ R8, $7
	JNE  top6
	TOP(Z6, Z14)
	JMP  horner5

top6:
	CMPQ R8, $6
	JNE  top5
	TOP(Z5, Z13)
	JMP  horner4

top5:
	CMPQ R8, $5
	JNE  top4
	TOP(Z4, Z12)
	JMP  horner3

top4:
	CMPQ R8, $4
	JNE  top3
	TOP(Z3, Z11)
	JMP  horner2

top3:
	CMPQ R8, $3
	JNE  top2
	TOP(Z2, Z10)
	JMP  horner1

top2:
	CMPQ R8, $2
	JNE  top1
	TOP(Z1, Z9)
	JMP  horner0

top1:
	TOP(Z0, Z8)
	JMP reduce

horner6:
	HORNER(Z6, Z14)

horner5:
	HORNER(Z5, Z13)

horner4:
	HORNER(Z4, Z12)

horner3:
	HORNER(Z3, Z11)

horner2:
	HORNER(Z2, Z10)

horner1:
	HORNER(Z1, Z9)

horner0:
	HORNER(Z0, Z8)

	// Add the eight lanes: rotate by four, two and one lanes.
reduce:
	VALIGNQ $4, Z20, Z20, Z21
	VPADDQ  Z21, Z20, Z20
	VALIGNQ $2, Z20, Z20, Z21
	VPADDQ  Z21, Z20, Z20
	VALIGNQ $1, Z20, Z20, Z21
	VPADDQ  Z21, Z20, Z20
	VMOVQ   X20, AX
	MOVQ    AX, ret+56(FP)
	VZEROUPPER
	RET
