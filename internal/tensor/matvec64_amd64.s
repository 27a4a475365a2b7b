// AVX2 kernels of the float64 vector paths: MulVec/MulVecAddBias, MulVecT,
// AddOuterInPlace and AxpyInPlace. Each one performs, element for element,
// the operations of the Go loop it replaces, so the two are bit-identical:
//
//   - a YMM register's four lanes are the Go loop's four accumulators (or four
//     consecutive independent elements), never a re-association of one sum;
//   - every product is a VMULPD or VMULSD and every sum a VADDPD or VADDSD with
//     the Go operand order, never a fused multiply-add;
//   - the n%4 tail, the skip of a zero multiplier and the final
//     (s0+s1)+(s2+s3) happen where the Go loop has them.
//
// Scalars are VEX-encoded (VMOVSD, VUCOMISD, VMULSD, VADDSD): a legacy SSE
// instruction after a 256-bit one costs a state transition on every use.

#include "textflag.h"

// func mulVec64(w, v, b, out *float64, rows, cols int64)
//
// out[r] = ((s0+s1)+(s2+s3)) [+ b[r] when b != nil] for each row r of the
// row-major rows×cols matrix w, where lane j of the accumulator sums
// w[r][c]*v[c] over c ≡ j (mod 4) for c below cols&^3, and lane 0 then adds
// the tail products in column order. Four rows run side by side so their add
// chains overlap; a row remainder runs one row at a time. rows, cols >= 1.
//
// A tail product enters lane 0 of a zero-extended vector, so lanes 1–3 gain
// +0: exact, because an accumulator that starts at +0 can never become -0.
TEXT ·mulVec64(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ out+24(FP), DX
	MOVQ rows+32(FP), R8
	MOVQ cols+40(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10                 // row stride in bytes
	MOVQ R9, R13
	ANDQ $-4, R13
	SHLQ $3, R13                 // bytes covered by whole 4-column steps
	SHLQ $3, R9                  // bytes in a row

rows4:
	CMPQ R8, $4
	JLT  rows1
	LEAQ (SI)(R10*1), R11        // row 1
	LEAQ (R11)(R10*1), AX        // row 2
	LEAQ (AX)(R10*1), R12        // row 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX

vec4:
	CMPQ CX, R13
	JGE  tail4
	VMOVUPD (DI)(CX*1), Y4       // v[c:c+4]
	VMOVUPD (SI)(CX*1), Y5
	VMULPD  Y4, Y5, Y5           // w[r][c:c+4] * v[c:c+4]
	VADDPD  Y5, Y0, Y0
	VMOVUPD (R11)(CX*1), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD (AX)(CX*1), Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y7, Y2, Y2
	VMOVUPD (R12)(CX*1), Y8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, CX
	JMP     vec4

tail4:
	CMPQ CX, R9
	JGE  sum4
	VMOVSD  (DI)(CX*1), X4       // (v[c], 0, 0, 0)
	VMOVSD  (SI)(CX*1), X5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VMOVSD  (R11)(CX*1), X6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVSD  (AX)(CX*1), X7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y7, Y2, Y2
	VMOVSD  (R12)(CX*1), X8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, CX
	JMP     tail4

sum4:
	VHADDPD    Y1, Y0, Y4        // (r0 s0+s1, r1 s0+s1, r0 s2+s3, r1 s2+s3)
	VHADDPD    Y3, Y2, Y5        // the same for rows 2 and 3
	VPERM2F128 $0x20, Y5, Y4, Y6 // s0+s1 of rows 0..3
	VPERM2F128 $0x31, Y5, Y4, Y7 // s2+s3 of rows 0..3
	VADDPD     Y7, Y6, Y6
	TESTQ      BX, BX
	JZ         store4
	VADDPD     (BX), Y6, Y6
	ADDQ       $32, BX

store4:
	VMOVUPD Y6, (DX)
	ADDQ    $32, DX
	LEAQ    (R12)(R10*1), SI     // next group of rows
	SUBQ    $4, R8
	JMP     rows4

rows1:
	TESTQ R8, R8
	JZ    done
	VXORPD Y0, Y0, Y0
	XORQ   CX, CX

vec1:
	CMPQ CX, R13
	JGE  tail1
	VMOVUPD (DI)(CX*1), Y4
	VMOVUPD (SI)(CX*1), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $32, CX
	JMP     vec1

tail1:
	CMPQ CX, R9
	JGE  sum1
	VMOVSD (DI)(CX*1), X4
	VMOVSD (SI)(CX*1), X5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ   $8, CX
	JMP    tail1

sum1:
	VEXTRACTF128 $1, Y0, X1      // (s2, s3)
	VHADDPD      X0, X0, X0      // s0+s1
	VHADDPD      X1, X1, X1      // s2+s3
	VADDSD       X1, X0, X0
	TESTQ        BX, BX
	JZ           store1
	VADDSD       (BX), X0, X0
	ADDQ         $8, BX

store1:
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	ADDQ   R10, SI
	DECQ   R8
	JMP    rows1

done:
	VZEROUPPER
	RET

// func mulVecT64(w, v, out *float64, rows, cols int64)
//
// out[c] = Σ_r w[r][c]*v[r], summed in row order from +0 and skipping rows
// whose v[r] == 0 (a NaN is not skipped). A block of 16 output columns stays
// in four registers while the rows stream past; then blocks of 4, then single
// columns. rows, cols >= 1.
TEXT ·mulVecT64(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10                 // row stride in bytes
	MOVQ R9, R11
	ANDQ $-16, R11
	SHLQ $3, R11                 // bytes covered by 16-column blocks
	MOVQ R9, R12
	ANDQ $-4, R12
	SHLQ $3, R12                 // bytes covered by 4-column blocks
	SHLQ $3, R9                  // bytes in a row
	VXORPD X15, X15, X15
	XORQ   BX, BX                // column offset of the block in bytes

blk16:
	CMPQ BX, R11
	JGE  blk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(BX*1), AX        // w[0][block]
	XORQ   CX, CX

row16:
	CMPQ     CX, R8
	JGE      store16
	VMOVSD   (DI)(CX*8), X4
	VUCOMISD X15, X4
	JNE      use16
	JPS      use16               // unordered: NaN is not zero
	JMP      next16

use16:
	VBROADCASTSD (DI)(CX*8), Y4
	VMOVUPD      (AX), Y5
	VMULPD       Y4, Y5, Y5      // w[r][c:c+4] * v[r]
	VADDPD       Y5, Y0, Y0
	VMOVUPD      32(AX), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      64(AX), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      96(AX), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3

next16:
	ADDQ R10, AX
	INCQ CX
	JMP  row16

store16:
	VMOVUPD Y0, (DX)(BX*1)
	VMOVUPD Y1, 32(DX)(BX*1)
	VMOVUPD Y2, 64(DX)(BX*1)
	VMOVUPD Y3, 96(DX)(BX*1)
	ADDQ    $128, BX
	JMP     blk16

blk4:
	CMPQ BX, R12
	JGE  col1
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(BX*1), AX
	XORQ   CX, CX

row4:
	CMPQ     CX, R8
	JGE      store4
	VMOVSD   (DI)(CX*8), X4
	VUCOMISD X15, X4
	JNE      use4
	JPS      use4
	JMP      next4

use4:
	VBROADCASTSD (DI)(CX*8), Y4
	VMOVUPD      (AX), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0

next4:
	ADDQ R10, AX
	INCQ CX
	JMP  row4

store4:
	VMOVUPD Y0, (DX)(BX*1)
	ADDQ    $32, BX
	JMP     blk4

col1:
	CMPQ   BX, R9
	JGE    doneT
	VXORPD X0, X0, X0
	LEAQ   (SI)(BX*1), AX
	XORQ   CX, CX

row1:
	CMPQ     CX, R8
	JGE      store1
	VMOVSD   (DI)(CX*8), X4
	VUCOMISD X15, X4
	JNE      use1
	JPS      use1
	JMP      next1

use1:
	VMOVSD (AX), X5
	VMULSD X4, X5, X5
	VADDSD X5, X0, X0

next1:
	ADDQ R10, AX
	INCQ CX
	JMP  row1

store1:
	VMOVSD X0, (DX)(BX*1)
	ADDQ   $8, BX
	JMP    col1

doneT:
	VZEROUPPER
	RET

// func addOuter64(m, u, v *float64, a float64, rows, cols int64)
//
// m[r][c] += au*v[c] with au = a*u[r], skipping rows whose au == 0 (a NaN is
// not skipped): 16 columns a step, then 4, then one. rows, cols >= 1.
TEXT ·addOuter64(SB), NOSPLIT, $0-48
	MOVQ   m+0(FP), SI
	MOVQ   u+8(FP), DI
	MOVQ   v+16(FP), DX
	VMOVSD a+24(FP), X14
	MOVQ   rows+32(FP), R8
	MOVQ   cols+40(FP), R9
	MOVQ   R9, R10
	SHLQ   $3, R10               // row stride in bytes
	MOVQ   R9, R11
	ANDQ   $-16, R11
	SHLQ   $3, R11               // bytes covered by 16-column steps
	MOVQ   R9, R12
	ANDQ   $-4, R12
	SHLQ   $3, R12               // bytes covered by 4-column steps
	SHLQ   $3, R9                // bytes in a row
	VXORPD X15, X15, X15
	XORQ   CX, CX                // row index

rowO:
	CMPQ     CX, R8
	JGE      doneO
	VMOVSD   (DI)(CX*8), X4
	VMULSD   X4, X14, X4         // au = a * u[r]
	VUCOMISD X15, X4
	JNE      useO
	JPS      useO
	JMP      nextO

useO:
	VBROADCASTSD X4, Y4
	XORQ         BX, BX

c16:
	CMPQ    BX, R11
	JGE     c4
	VMOVUPD (DX)(BX*1), Y5
	VMULPD  Y5, Y4, Y5           // au * v[c:c+4]
	VMOVUPD (SI)(BX*1), Y6
	VADDPD  Y5, Y6, Y6           // m[r][c:c+4] + product
	VMOVUPD Y6, (SI)(BX*1)
	VMOVUPD 32(DX)(BX*1), Y7
	VMULPD  Y7, Y4, Y7
	VMOVUPD 32(SI)(BX*1), Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, 32(SI)(BX*1)
	VMOVUPD 64(DX)(BX*1), Y9
	VMULPD  Y9, Y4, Y9
	VMOVUPD 64(SI)(BX*1), Y10
	VADDPD  Y9, Y10, Y10
	VMOVUPD Y10, 64(SI)(BX*1)
	VMOVUPD 96(DX)(BX*1), Y11
	VMULPD  Y11, Y4, Y11
	VMOVUPD 96(SI)(BX*1), Y12
	VADDPD  Y11, Y12, Y12
	VMOVUPD Y12, 96(SI)(BX*1)
	ADDQ    $128, BX
	JMP     c16

c4:
	CMPQ    BX, R12
	JGE     c1
	VMOVUPD (DX)(BX*1), Y5
	VMULPD  Y5, Y4, Y5
	VMOVUPD (SI)(BX*1), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (SI)(BX*1)
	ADDQ    $32, BX
	JMP     c4

c1:
	CMPQ   BX, R9
	JGE    nextO
	VMOVSD (DX)(BX*1), X5
	VMULSD X5, X4, X5
	VMOVSD (SI)(BX*1), X6
	VADDSD X5, X6, X6
	VMOVSD X6, (SI)(BX*1)
	ADDQ   $8, BX
	JMP    c1

nextO:
	ADDQ R10, SI
	INCQ CX
	JMP  rowO

doneO:
	VZEROUPPER
	RET

// func axpy64(dst, src *float64, a float64, n int64)
//
// dst[i] += a*src[i]: 16 elements a step, then 4, then one. n >= 1.
TEXT ·axpy64(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), SI
	MOVQ         src+8(FP), DX
	VBROADCASTSD a+16(FP), Y4
	MOVQ         n+24(FP), R9
	MOVQ         R9, R11
	ANDQ         $-16, R11
	SHLQ         $3, R11         // bytes covered by 16-element steps
	MOVQ         R9, R12
	ANDQ         $-4, R12
	SHLQ         $3, R12         // bytes covered by 4-element steps
	SHLQ         $3, R9
	XORQ         BX, BX

a16:
	CMPQ    BX, R11
	JGE     a4
	VMOVUPD (DX)(BX*1), Y5
	VMULPD  Y5, Y4, Y5           // a * src[i:i+4]
	VMOVUPD (SI)(BX*1), Y6
	VADDPD  Y5, Y6, Y6           // dst[i:i+4] + product
	VMOVUPD Y6, (SI)(BX*1)
	VMOVUPD 32(DX)(BX*1), Y7
	VMULPD  Y7, Y4, Y7
	VMOVUPD 32(SI)(BX*1), Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, 32(SI)(BX*1)
	VMOVUPD 64(DX)(BX*1), Y9
	VMULPD  Y9, Y4, Y9
	VMOVUPD 64(SI)(BX*1), Y10
	VADDPD  Y9, Y10, Y10
	VMOVUPD Y10, 64(SI)(BX*1)
	VMOVUPD 96(DX)(BX*1), Y11
	VMULPD  Y11, Y4, Y11
	VMOVUPD 96(SI)(BX*1), Y12
	VADDPD  Y11, Y12, Y12
	VMOVUPD Y12, 96(SI)(BX*1)
	ADDQ    $128, BX
	JMP     a16

a4:
	CMPQ    BX, R12
	JGE     a1
	VMOVUPD (DX)(BX*1), Y5
	VMULPD  Y5, Y4, Y5
	VMOVUPD (SI)(BX*1), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (SI)(BX*1)
	ADDQ    $32, BX
	JMP     a4

a1:
	CMPQ   BX, R9
	JGE    doneA
	VMOVSD (DX)(BX*1), X5
	VMULSD X5, X4, X5
	VMOVSD (SI)(BX*1), X6
	VADDSD X5, X6, X6
	VMOVSD X6, (SI)(BX*1)
	ADDQ   $8, BX
	JMP    a1

doneA:
	VZEROUPPER
	RET
