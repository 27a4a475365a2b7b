// The assembly microkernels of the float32 fused GEMM, one per vector width.
//
// AVX2+FMA: four input rows against a 16-column block of the transposed
// weight matrix, bias preloaded into the accumulators and the activation
// applied before the store.
//
// func gemm4x16(x0, x1, x2, x3, wt, bias *float32, y0, y1, y2, y3 *float32, k, ldwt, act int64)
//
// Computes, for r in 0..3:
//
//	yr[0:16] = act(bias[0:16] + sum_{t<k} xr[t] * wt[t*ldwt : t*ldwt+16])
//
// wt points at the first column of the 16-wide block inside a row-major K×Np
// matrix with row stride ldwt (in floats); act 0 = identity, 1 = leaky ReLU
// max(v, 0.01*v). Register budget: Y0–Y7 accumulators (two per row), Y8–Y11
// broadcast inputs, Y12–Y13 the weight block, Y14–Y15 bias/activation
// scratch — all sixteen ymm registers.

#include "textflag.h"

DATA leakyAlpha32<>+0(SB)/4, $0x3c23d70a // float32(0.01)
GLOBL leakyAlpha32<>(SB), RODATA, $4

TEXT ·gemm4x16(SB), NOSPLIT, $0-104
	MOVQ x0+0(FP), R8
	MOVQ x1+8(FP), R9
	MOVQ x2+16(FP), R10
	MOVQ x3+24(FP), R11
	MOVQ wt+32(FP), DI
	MOVQ bias+40(FP), SI
	MOVQ k+80(FP), CX
	MOVQ ldwt+88(FP), DX
	SHLQ $2, DX                  // weight row stride in bytes

	// Accumulators start at the bias block.
	VMOVUPS (SI), Y14
	VMOVUPS 32(SI), Y15
	VMOVAPS Y14, Y0
	VMOVAPS Y15, Y1
	VMOVAPS Y14, Y2
	VMOVAPS Y15, Y3
	VMOVAPS Y14, Y4
	VMOVAPS Y15, Y5
	VMOVAPS Y14, Y6
	VMOVAPS Y15, Y7

	XORQ AX, AX                  // byte offset into the x rows

loop:
	TESTQ CX, CX
	JZ    done
	VMOVUPS (DI), Y12            // wt[t, 0:8]
	VMOVUPS 32(DI), Y13          // wt[t, 8:16]
	VBROADCASTSS (R8)(AX*1), Y8
	VBROADCASTSS (R9)(AX*1), Y9
	VBROADCASTSS (R10)(AX*1), Y10
	VBROADCASTSS (R11)(AX*1), Y11
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y13, Y8, Y1
	VFMADD231PS Y12, Y9, Y2
	VFMADD231PS Y13, Y9, Y3
	VFMADD231PS Y12, Y10, Y4
	VFMADD231PS Y13, Y10, Y5
	VFMADD231PS Y12, Y11, Y6
	VFMADD231PS Y13, Y11, Y7
	ADDQ $4, AX
	ADDQ DX, DI
	DECQ CX
	JMP  loop

done:
	MOVQ act+96(FP), AX
	CMPQ AX, $1
	JNE  store

	// Leaky ReLU: v = max(v, 0.01*v).
	VBROADCASTSS leakyAlpha32<>(SB), Y14
	VMULPS Y14, Y0, Y15
	VMAXPS Y15, Y0, Y0
	VMULPS Y14, Y1, Y15
	VMAXPS Y15, Y1, Y1
	VMULPS Y14, Y2, Y15
	VMAXPS Y15, Y2, Y2
	VMULPS Y14, Y3, Y15
	VMAXPS Y15, Y3, Y3
	VMULPS Y14, Y4, Y15
	VMAXPS Y15, Y4, Y4
	VMULPS Y14, Y5, Y15
	VMAXPS Y15, Y5, Y5
	VMULPS Y14, Y6, Y15
	VMAXPS Y15, Y6, Y6
	VMULPS Y14, Y7, Y15
	VMAXPS Y15, Y7, Y7

store:
	// The x-row registers are dead after the loop; reuse them for the y rows
	// so the kernel stays off R12–R15 (reserved in some build modes).
	MOVQ y0+48(FP), R8
	MOVQ y1+56(FP), R9
	MOVQ y2+64(FP), R10
	MOVQ y3+72(FP), R11
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET

// AVX-512F microkernel: eight consecutive input rows against the same
// 16-column weight block, one zmm accumulator per row.
//
// func gemm8x16(x, wt, bias, y *float32, k, ldx, ldwt, ldy, act int64)
//
// Computes, for r in 0..7:
//
//	y[r*ldy : r*ldy+16] = act(bias[0:16] + sum_{t<k} x[r*ldx+t] * wt[t*ldwt : t*ldwt+16])
//
// with k >= 1. Every output element goes through exactly the operations
// gemm4x16 applies to it — accumulator preloaded with the bias, one fused
// multiply-add per t in order, then max(v, 0.01*v) with the same operand
// order — so the two kernels agree bit for bit. The input element is an
// embedded broadcast of the FMA, so a step is one weight load and eight FMAs
// (broadcasting into registers first, as gemm4x16 does, measured 10 % slower).
// That makes the weight block the FMA's second source and the input its third,
// the reverse of gemm4x16; the hardware only tells them apart when x[t] and
// wt[t][j] are both NaN, where it propagates the payload of the second source.
// Rows are addressed from two bases (rows 0 and 4) with the strides ldx and
// 3*ldx as indices. Z0–Z7 accumulators, Z8 the weight block, Z9 scratch.
TEXT ·gemm8x16(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), R8
	MOVQ wt+8(FP), DI
	MOVQ bias+16(FP), SI
	MOVQ k+32(FP), CX
	MOVQ ldx+40(FP), R10
	MOVQ ldwt+48(FP), DX
	SHLQ $2, R10                 // x row stride in bytes
	SHLQ $2, DX                  // weight row stride in bytes
	LEAQ (R10)(R10*2), R11       // three x rows in bytes
	LEAQ (R8)(R10*4), R9         // row 4

	// Accumulators start at the bias block.
	VMOVUPS (SI), Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7

loop8:
	VMOVUPS (DI), Z8             // wt[t, 0:16]
	VFMADD231PS.BCST (R8), Z8, Z0
	VFMADD231PS.BCST (R8)(R10*1), Z8, Z1
	VFMADD231PS.BCST (R8)(R10*2), Z8, Z2
	VFMADD231PS.BCST (R8)(R11*1), Z8, Z3
	VFMADD231PS.BCST (R9), Z8, Z4
	VFMADD231PS.BCST (R9)(R10*1), Z8, Z5
	VFMADD231PS.BCST (R9)(R10*2), Z8, Z6
	VFMADD231PS.BCST (R9)(R11*1), Z8, Z7
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ DX, DI
	DECQ CX
	JNZ  loop8

	MOVQ act+64(FP), AX
	CMPQ AX, $1
	JNE  store8

	// Leaky ReLU: v = max(v, 0.01*v).
	VBROADCASTSS leakyAlpha32<>(SB), Z8
	VMULPS Z8, Z0, Z9
	VMAXPS Z9, Z0, Z0
	VMULPS Z8, Z1, Z9
	VMAXPS Z9, Z1, Z1
	VMULPS Z8, Z2, Z9
	VMAXPS Z9, Z2, Z2
	VMULPS Z8, Z3, Z9
	VMAXPS Z9, Z3, Z3
	VMULPS Z8, Z4, Z9
	VMAXPS Z9, Z4, Z4
	VMULPS Z8, Z5, Z9
	VMAXPS Z9, Z5, Z5
	VMULPS Z8, Z6, Z9
	VMAXPS Z9, Z6, Z6
	VMULPS Z8, Z7, Z9
	VMAXPS Z9, Z7, Z7

store8:
	MOVQ y+24(FP), R8
	MOVQ ldy+56(FP), R10
	SHLQ $2, R10                 // y row stride in bytes
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R10*4), R9
	VMOVUPS Z0, (R8)
	VMOVUPS Z1, (R8)(R10*1)
	VMOVUPS Z2, (R8)(R10*2)
	VMOVUPS Z3, (R8)(R11*1)
	VMOVUPS Z4, (R9)
	VMOVUPS Z5, (R9)(R10*1)
	VMOVUPS Z6, (R9)(R10*2)
	VMOVUPS Z7, (R9)(R11*1)
	VZEROUPPER
	RET
