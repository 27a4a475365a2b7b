// The AVX2 kernel of AdamInPlace: four elements per instruction, each lane
// running the portable loop's operations in its order (see adam.go).

#include "textflag.h"

// func adam64(val, grad, m, v *float64, n int64, c *AdamCoeffs)
//
// n is a positive multiple of 4.
TEXT ·adam64(SB), NOSPLIT, $0-48
	MOVQ         val+0(FP), SI
	MOVQ         grad+8(FP), DX
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), R10
	SHLQ         $3, R10
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y7       // Beta1
	VBROADCASTSD 8(AX), Y9       // Beta2
	VBROADCASTSD 16(AX), Y11     // BC1
	VBROADCASTSD 24(AX), Y12     // BC2
	VBROADCASTSD 32(AX), Y14     // LR
	VBROADCASTSD 40(AX), Y13     // Eps
	VBROADCASTSD 48(AX), Y15     // WD
	MOVQ         $0x3ff0000000000000, BX
	MOVQ         BX, X8
	VBROADCASTSD X8, Y8          // 1
	VSUBPD       Y7, Y8, Y10     // 1 - Beta1
	VSUBPD       Y9, Y8, Y8      // 1 - Beta2
	XORQ         CX, CX

loop:
	VMOVUPD (DX)(CX*1), Y0       // g
	VMOVUPD (R8)(CX*1), Y1
	VMULPD  Y1, Y7, Y1           // Beta1·m
	VMULPD  Y0, Y10, Y2          // (1-Beta1)·g
	VADDPD  Y2, Y1, Y1           // m = Beta1·m + (1-Beta1)·g
	VMOVUPD Y1, (R8)(CX*1)
	VMOVUPD (R9)(CX*1), Y3
	VMULPD  Y3, Y9, Y3           // Beta2·v
	VMULPD  Y0, Y8, Y4           // (1-Beta2)·g
	VMULPD  Y0, Y4, Y4           // ((1-Beta2)·g)·g
	VADDPD  Y4, Y3, Y3           // v = Beta2·v + (1-Beta2)·g·g
	VMOVUPD Y3, (R9)(CX*1)
	VDIVPD  Y11, Y1, Y1          // m/BC1
	VDIVPD  Y12, Y3, Y3          // v/BC2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3          // √(v/BC2) + Eps
	VDIVPD  Y3, Y1, Y1           // (m/BC1) / (√(v/BC2)+Eps)
	VMOVUPD (SI)(CX*1), Y5
	VMULPD  Y5, Y15, Y6          // WD·val
	VADDPD  Y6, Y1, Y1
	VMULPD  Y1, Y14, Y1          // LR·(…)
	VSUBPD  Y1, Y5, Y5           // val - LR·(…)
	VMOVUPD Y5, (SI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R10
	JLT     loop
	VZEROUPPER
	RET
