//go:build amd64 && !race

#include "textflag.h"

// The amd64 register kernels: SSE2 only, which every amd64 CPU has
// (GOAMD64=v1), so there is nothing to detect. Each loop iteration covers
// 64 registers in four 16-byte lanes; the Go wrappers in kernel_amd64.go
// hand the remainder to the portable kernels.

// func maxBytesSSE2(dst, src []uint8)
// dst[i] = max(dst[i], src[i]) for i < len(dst)/64*64; src must be as long.
TEXT ·maxBytesSSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX
	JZ   maxdone

maxloop:
	MOVOU  0(DI), X0
	MOVOU  16(DI), X1
	MOVOU  32(DI), X2
	MOVOU  48(DI), X3
	MOVOU  0(SI), X4
	MOVOU  16(SI), X5
	MOVOU  32(SI), X6
	MOVOU  48(SI), X7
	PMAXUB X4, X0
	PMAXUB X5, X1
	PMAXUB X6, X2
	PMAXUB X7, X3
	MOVOU  X0, 0(DI)
	MOVOU  X1, 16(DI)
	MOVOU  X2, 32(DI)
	MOVOU  X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	DECQ   CX
	JNZ    maxloop

maxdone:
	RET

// func presenceSSE2(bitmap []uint64, r Regs)
// bitmap[j] bit i = (r[64j+i] != 0) for j < len(r)/64; bitmap must be as long.
TEXT ·presenceSSE2(SB), NOSPLIT, $0-48
	MOVQ bitmap_base+0(FP), DI
	MOVQ r_base+24(FP), SI
	MOVQ r_len+32(FP), CX
	SHRQ $6, CX
	JZ   predone
	PXOR X8, X8

preloop:
	MOVOU    0(SI), X0
	MOVOU    16(SI), X1
	MOVOU    32(SI), X2
	MOVOU    48(SI), X3
	PCMPEQB  X8, X0
	PCMPEQB  X8, X1
	PCMPEQB  X8, X2
	PCMPEQB  X8, X3
	PMOVMSKB X0, AX
	PMOVMSKB X1, BX
	PMOVMSKB X2, DX
	PMOVMSKB X3, R8
	SHLQ     $16, BX
	SHLQ     $32, DX
	SHLQ     $48, R8
	ORQ      BX, AX
	ORQ      DX, AX
	ORQ      R8, AX
	NOTQ     AX
	MOVQ     AX, 0(DI)
	ADDQ     $64, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      preloop

predone:
	RET
