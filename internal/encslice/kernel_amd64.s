//go:build amd64 && !purego

#include "textflag.h"

// The group kernels. A row is one vector's groupCols = 8 words of a
// column group (64 bytes); out is a planes block: ones at 0, twos at 64,
// fours at 128, eights at 192 and hi[l] at 256+64·l.
//
// Planes are absorbed sixteen at a time by a Harley–Seal tree of fifteen
// carry-save adders: against ones, twos, fours and eights, emitting one
// sixteen-weight carry, which ripples up the high stack to the engine's
// depth hiN. Fewer than sixteen leftover planes are absorbed one at a
// time, each rippling up from ones. Both paths meet at the ripple, after
// which the plane count left (CX) picks the next step.
//
// Registers shared by all four entries: DI out, SI base, DX lvl, BX the
// index list, CX planes left, R8 hiN, AX the row offset of an index.

// XLOAD512 sets R to plane i of an xor pass: lvl row lvi[i] ⊕ base row i.
#define XLOAD512(i, R) \
	MOVWQZX (2*i)(BX), AX; \
	SHLQ    $6, AX; \
	VMOVDQU64 (DX)(AX*1), R; \
	VPXORQ  (64*i)(SI), R, R

// GLOAD512 sets R to plane i of a gather pass: base row list[i].
#define GLOAD512(i, R) \
	MOVWQZX (2*i)(BX), AX; \
	SHLQ    $6, AX; \
	VMOVDQU64 (SI)(AX*1), R

// CSA512 is one carry-save adder over 512 lanes: a = a⊕p⊕q (VPTERNLOGQ
// 0x96) and p = maj(a,p,q) (0xE8), with Z25 holding the old a.
#define CSA512(a, p, q) \
	VMOVDQA64 a, Z25; \
	VPTERNLOGQ $0x96, q, p, a; \
	VPTERNLOGQ $0xE8, q, Z25, p

// TREE512 absorbs planes 0–15 into ones Z0, twos Z1, fours Z2 and eights
// Z3, leaving the sixteen-weight carry in Z20. Z21–Z24 hold partial sums
// and planes.
#define TREE512(LOAD) \
	LOAD(0, Z20); LOAD(1, Z24); CSA512(Z0, Z20, Z24); \
	LOAD(2, Z21); LOAD(3, Z24); CSA512(Z0, Z21, Z24); \
	CSA512(Z1, Z20, Z21); \
	LOAD(4, Z21); LOAD(5, Z24); CSA512(Z0, Z21, Z24); \
	LOAD(6, Z22); LOAD(7, Z24); CSA512(Z0, Z22, Z24); \
	CSA512(Z1, Z21, Z22); \
	CSA512(Z2, Z20, Z21); \
	LOAD(8, Z21); LOAD(9, Z24); CSA512(Z0, Z21, Z24); \
	LOAD(10, Z22); LOAD(11, Z24); CSA512(Z0, Z22, Z24); \
	CSA512(Z1, Z21, Z22); \
	LOAD(12, Z22); LOAD(13, Z24); CSA512(Z0, Z22, Z24); \
	LOAD(14, Z23); LOAD(15, Z24); CSA512(Z0, Z23, Z24); \
	CSA512(Z1, Z22, Z23); \
	CSA512(Z2, Z21, Z22); \
	CSA512(Z3, Z20, Z21)

// ADD1_512 absorbs plane Z20 into ones–eights, leaving the sixteen-weight
// carry in Z20: each slice becomes s⊕x and the carry x∧s = x∧¬(s⊕x).
#define ADD1_512 \
	VPXORQ  Z20, Z0, Z0; \
	VPANDNQ Z20, Z0, Z20; \
	VPXORQ  Z20, Z1, Z1; \
	VPANDNQ Z20, Z1, Z20; \
	VPXORQ  Z20, Z2, Z2; \
	VPANDNQ Z20, Z2, Z20; \
	VPXORQ  Z20, Z3, Z3; \
	VPANDNQ Z20, Z3, Z20

// HI512 adds the carry Z20 into hi[l] = h when l < hiN.
#define HI512(l, h) \
	CMPQ    R8, $l; \
	JLE     rippled; \
	VPXORQ  Z20, h, h; \
	VPANDNQ Z20, h, Z20

// RIPPLE512 ripples Z20 up the high stack Z4–Z19 to the engine's depth.
#define RIPPLE512 \
	HI512(0, Z4); \
	HI512(1, Z5); \
	HI512(2, Z6); \
	HI512(3, Z7); \
	HI512(4, Z8); \
	HI512(5, Z9); \
	HI512(6, Z10); \
	HI512(7, Z11); \
	HI512(8, Z12); \
	HI512(9, Z13); \
	HI512(10, Z14); \
	HI512(11, Z15); \
	HI512(12, Z16); \
	HI512(13, Z17); \
	HI512(14, Z18); \
	HI512(15, Z19); \
rippled:

#define ZERO512 \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
	VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19

#define STORE512 \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z1, 64(DI); \
	VMOVDQU64 Z2, 128(DI); \
	VMOVDQU64 Z3, 192(DI); \
	VMOVDQU64 Z4, 256(DI); \
	VMOVDQU64 Z5, 320(DI); \
	VMOVDQU64 Z6, 384(DI); \
	VMOVDQU64 Z7, 448(DI); \
	VMOVDQU64 Z8, 512(DI); \
	VMOVDQU64 Z9, 576(DI); \
	VMOVDQU64 Z10, 640(DI); \
	VMOVDQU64 Z11, 704(DI); \
	VMOVDQU64 Z12, 768(DI); \
	VMOVDQU64 Z13, 832(DI); \
	VMOVDQU64 Z14, 896(DI); \
	VMOVDQU64 Z15, 960(DI); \
	VMOVDQU64 Z16, 1024(DI); \
	VMOVDQU64 Z17, 1088(DI); \
	VMOVDQU64 Z18, 1152(DI); \
	VMOVDQU64 Z19, 1216(DI)

// func xor512(out *planes, base, lvl []uint64, lvi []uint16, hiN int)
TEXT ·xor512(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ base_base+8(FP), SI
	MOVQ lvl_base+32(FP), DX
	MOVQ lvi_base+56(FP), BX
	MOVQ lvi_len+64(FP), CX
	MOVQ hiN+80(FP), R8
	ZERO512

next:
	CMPQ CX, $16
	JLT  tail
	TREE512(XLOAD512)
	ADDQ $32, BX
	ADDQ $1024, SI
	SUBQ $16, CX
	JMP  ripple

tail:
	TESTQ CX, CX
	JEQ   done
	XLOAD512(0, Z20)
	ADDQ  $2, BX
	ADDQ  $64, SI
	DECQ  CX
	ADD1_512

ripple:
	RIPPLE512
	JMP next

done:
	STORE512
	VZEROUPPER
	RET

// func gather512(out *planes, base []uint64, list []uint16, hiN int)
TEXT ·gather512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ base_base+8(FP), SI
	MOVQ list_base+32(FP), BX
	MOVQ list_len+40(FP), CX
	MOVQ hiN+56(FP), R8
	ZERO512

next:
	CMPQ CX, $16
	JLT  tail
	TREE512(GLOAD512)
	ADDQ $32, BX
	SUBQ $16, CX
	JMP  ripple

tail:
	TESTQ CX, CX
	JEQ   done
	GLOAD512(0, Z20)
	ADDQ  $2, BX
	DECQ  CX
	ADD1_512

ripple:
	RIPPLE512
	JMP next

done:
	STORE512
	VZEROUPPER
	RET

// The AVX2 entries run a group as two four-column halves: the second
// pass offsets out, base and lvl by 32 bytes. Ones–eights are Y0–Y3 and
// hi[0:6] Y4–Y9, enough for fewer than 1 024 planes; deeper levels live in
// out. Y10–Y14 hold partial sums and planes, Y15 is the adder temporary.
// R9 counts the halves left and R10 holds the half's base pointer.

#define XLOAD256(i, R) \
	MOVWQZX (2*i)(BX), AX; \
	SHLQ    $6, AX; \
	VMOVDQU (DX)(AX*1), R; \
	VPXOR   (64*i)(SI), R, R

#define GLOAD256(i, R) \
	MOVWQZX (2*i)(BX), AX; \
	SHLQ    $6, AX; \
	VMOVDQU (SI)(AX*1), R

// CSA256: a = a⊕p⊕q and p = maj(a,p,q) = p∧q ∨ (p⊕q)∧a; q is clobbered.
#define CSA256(a, p, q) \
	VPXOR q, p, Y15; \
	VPAND q, p, p; \
	VPAND Y15, a, q; \
	VPOR  q, p, p; \
	VPXOR Y15, a, a

// TREE256 is TREE512 over YMM registers, leaving the carry in Y10.
#define TREE256(LOAD) \
	LOAD(0, Y10); LOAD(1, Y14); CSA256(Y0, Y10, Y14); \
	LOAD(2, Y11); LOAD(3, Y14); CSA256(Y0, Y11, Y14); \
	CSA256(Y1, Y10, Y11); \
	LOAD(4, Y11); LOAD(5, Y14); CSA256(Y0, Y11, Y14); \
	LOAD(6, Y12); LOAD(7, Y14); CSA256(Y0, Y12, Y14); \
	CSA256(Y1, Y11, Y12); \
	CSA256(Y2, Y10, Y11); \
	LOAD(8, Y11); LOAD(9, Y14); CSA256(Y0, Y11, Y14); \
	LOAD(10, Y12); LOAD(11, Y14); CSA256(Y0, Y12, Y14); \
	CSA256(Y1, Y11, Y12); \
	LOAD(12, Y12); LOAD(13, Y14); CSA256(Y0, Y12, Y14); \
	LOAD(14, Y13); LOAD(15, Y14); CSA256(Y0, Y13, Y14); \
	CSA256(Y1, Y12, Y13); \
	CSA256(Y2, Y11, Y12); \
	CSA256(Y3, Y10, Y11)

#define ADD1_256 \
	VPXOR  Y10, Y0, Y0; \
	VPANDN Y10, Y0, Y10; \
	VPXOR  Y10, Y1, Y1; \
	VPANDN Y10, Y1, Y10; \
	VPXOR  Y10, Y2, Y2; \
	VPANDN Y10, Y2, Y10; \
	VPXOR  Y10, Y3, Y3; \
	VPANDN Y10, Y3, Y10

// HIREG256 adds the carry Y10 into register level l = h when l < hiN;
// HIMEM256 into level l of out.
#define HIREG256(l, h) \
	CMPQ   R8, $l; \
	JLE    rippled; \
	VPXOR  Y10, h, h; \
	VPANDN Y10, h, Y10

#define HIMEM256(l) \
	CMPQ    R8, $l; \
	JLE     rippled; \
	VMOVDQU (256+64*l)(DI), Y15; \
	VPXOR   Y10, Y15, Y15; \
	VPANDN  Y10, Y15, Y10; \
	VMOVDQU Y15, (256+64*l)(DI)

#define RIPPLE256 \
	HIREG256(0, Y4); \
	HIREG256(1, Y5); \
	HIREG256(2, Y6); \
	HIREG256(3, Y7); \
	HIREG256(4, Y8); \
	HIREG256(5, Y9); \
	HIMEM256(6); \
	HIMEM256(7); \
	HIMEM256(8); \
	HIMEM256(9); \
	HIMEM256(10); \
	HIMEM256(11); \
	HIMEM256(12); \
	HIMEM256(13); \
	HIMEM256(14); \
	HIMEM256(15); \
rippled:

// ZERO256 clears the register slices and the half's hi[6:hiN] in out.
#define ZERO256 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	VPXOR Y8, Y8, Y8; \
	VPXOR Y9, Y9, Y9; \
	MOVQ  $6, AX; \
zerohi: \
	CMPQ  AX, R8; \
	JGE   zeroed; \
	MOVQ  AX, R11; \
	SHLQ  $6, R11; \
	VMOVDQU Y0, 256(DI)(R11*1); \
	INCQ  AX; \
	JMP   zerohi; \
zeroed:

#define STORE256 \
	VMOVDQU Y0, (DI); \
	VMOVDQU Y1, 64(DI); \
	VMOVDQU Y2, 128(DI); \
	VMOVDQU Y3, 192(DI); \
	VMOVDQU Y4, 256(DI); \
	VMOVDQU Y5, 320(DI); \
	VMOVDQU Y6, 384(DI); \
	VMOVDQU Y7, 448(DI); \
	VMOVDQU Y8, 512(DI); \
	VMOVDQU Y9, 576(DI)

// func xor256(out *planes, base, lvl []uint64, lvi []uint16, hiN int)
TEXT ·xor256(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ base_base+8(FP), R10
	MOVQ lvl_base+32(FP), DX
	MOVQ hiN+80(FP), R8
	MOVQ $2, R9

half:
	MOVQ R10, SI
	MOVQ lvi_base+56(FP), BX
	MOVQ lvi_len+64(FP), CX
	ZERO256

next:
	CMPQ CX, $16
	JLT  tail
	TREE256(XLOAD256)
	ADDQ $32, BX
	ADDQ $1024, SI
	SUBQ $16, CX
	JMP  ripple

tail:
	TESTQ CX, CX
	JEQ   done
	XLOAD256(0, Y10)
	ADDQ  $2, BX
	ADDQ  $64, SI
	DECQ  CX
	ADD1_256

ripple:
	RIPPLE256
	JMP next

done:
	STORE256
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, DX
	DECQ R9
	JNZ  half
	VZEROUPPER
	RET

// func gather256(out *planes, base []uint64, list []uint16, hiN int)
TEXT ·gather256(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ base_base+8(FP), SI
	MOVQ hiN+56(FP), R8
	MOVQ $2, R9

half:
	MOVQ list_base+32(FP), BX
	MOVQ list_len+40(FP), CX
	ZERO256

next:
	CMPQ CX, $16
	JLT  tail
	TREE256(GLOAD256)
	ADDQ $32, BX
	SUBQ $16, CX
	JMP  ripple

tail:
	TESTQ CX, CX
	JEQ   done
	GLOAD256(0, Y10)
	ADDQ  $2, BX
	DECQ  CX
	ADD1_256

ripple:
	RIPPLE256
	JMP next

done:
	STORE256
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ R9
	JNZ  half
	VZEROUPPER
	RET
