// The AVX2+FMA kernel of AdamInPlace: four elements per instruction, each
// lane running the portable loop's operations in its order (see adam.go):
// every math.FMA there is one VFMADD231PD here (the last a VFNMADD231PD,
// fma(-LR, u, val) = val - LR·u rounded once), and every other operation
// rounds on its own.

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
	VBROADCASTSD 32(AX), Y14     // LR
	VBROADCASTSD 40(AX), Y13     // Eps
	VBROADCASTSD 48(AX), Y15     // WD
	MOVQ         $0x3ff0000000000000, BX
	MOVQ         BX, X8
	VDIVSD       16(AX), X8, X11 // 1/BC1
	VBROADCASTSD X11, Y11
	VDIVSD       24(AX), X8, X12 // 1/BC2
	VBROADCASTSD X12, Y12
	VBROADCASTSD X8, Y8          // 1
	VSUBPD       Y7, Y8, Y10     // 1 - Beta1
	VSUBPD       Y9, Y8, Y8      // 1 - Beta2
	XORQ         CX, CX

loop:
	VMOVUPD     (DX)(CX*1), Y0   // g
	VMULPD      (R8)(CX*1), Y7, Y1 // Beta1·m
	VFMADD231PD Y0, Y10, Y1      // m = fma(1-Beta1, g, Beta1·m)
	VMOVUPD     Y1, (R8)(CX*1)
	VMULPD      (R9)(CX*1), Y9, Y3 // Beta2·v
	VMULPD      Y0, Y8, Y4       // (1-Beta2)·g
	VFMADD231PD Y0, Y4, Y3       // v = fma((1-Beta2)·g, g, Beta2·v)
	VMOVUPD     Y3, (R9)(CX*1)
	VMULPD      Y11, Y1, Y1      // m·(1/BC1)
	VMULPD      Y12, Y3, Y3      // v·(1/BC2)
	VSQRTPD     Y3, Y3
	VADDPD      Y13, Y3, Y3      // √(v·(1/BC2)) + Eps
	VDIVPD      Y3, Y1, Y1       // s
	VMOVUPD     (SI)(CX*1), Y5
	VFMADD231PD Y5, Y15, Y1      // u = fma(WD, val, s)
	VFNMADD231PD Y1, Y14, Y5     // val = fma(-LR, u, val)
	VMOVUPD     Y5, (SI)(CX*1)
	ADDQ        $32, CX
	CMPQ        CX, R10
	JLT         loop
	VZEROUPPER
	RET
