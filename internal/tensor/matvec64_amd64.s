// AVX2+FMA kernels of the float64 vector paths: MulVec/MulVecAddBias,
// MulVecT, AddOuterInPlace and AxpyInPlace. Each one performs, element for
// element, the operations of the Go loop it replaces, so the two are
// bit-identical:
//
//   - a YMM register's four lanes are the Go loop's four partial sums (or four
//     consecutive independent elements), never a re-association of one sum;
//   - every term the loop adds with math.FMA is one VFMADD231PD or
//     VFMADD231SD, rounded once, and every other product or sum rounds on its
//     own as in the loop;
//   - the n%4 tail and the final (s0+s1)+(s2+s3) happen where the Go loop
//     has them; an element-wise kernel runs its last 1–3 columns as one
//     masked vector, whose lanes are independent elements all the same.
//
// Scalars are VEX-encoded (VMOVSD, VMULSD, VADDSD): a legacy SSE instruction
// after a 256-bit one costs a state transition on every use.

#include "textflag.h"

// A tail column of a dot product enters lane 0 only: its operands are loaded
// zero-extended and one of them has lanes 1–3 set to -0 by this mask, so
// those lanes take fma(+0, -0, s) = s + (-0), which is s exactly, a -0
// included. gemm64_amd64.s uses it too.
DATA ·tailSign+0(SB)/8, $0
DATA ·tailSign+8(SB)/8, $0x8000000000000000
DATA ·tailSign+16(SB)/8, $0x8000000000000000
DATA ·tailSign+24(SB)/8, $0x8000000000000000
GLOBL ·tailSign(SB), RODATA|NOPTR, $32

// Four set lanes, then four clear: the 32 bytes at tailMask+32-8k select the
// first k lanes, the columns a 4-column block leaves over (k = 1..3), for
// VMASKMOVPD, which neither reads nor writes the lanes it leaves out. Element-
// wise kernels here and in gemm64_amd64.s run their last columns under it.
DATA ·tailMask+0(SB)/8, $-1
DATA ·tailMask+8(SB)/8, $-1
DATA ·tailMask+16(SB)/8, $-1
DATA ·tailMask+24(SB)/8, $-1
DATA ·tailMask+32(SB)/8, $0
DATA ·tailMask+40(SB)/8, $0
DATA ·tailMask+48(SB)/8, $0
DATA ·tailMask+56(SB)/8, $0
GLOBL ·tailMask(SB), RODATA|NOPTR, $64

// func mulVec64(w, v, b, out *float64, rows, cols int64)
//
// out[r] = ((s0+s1)+(s2+s3)) [+ b[r] when b != nil] for each row r of the
// row-major rows×cols matrix w, where lane j of the accumulator takes
// s = fma(w[r][c], v[c], s) over c ≡ j (mod 4) for c below cols&^3, and lane
// 0 then takes the tail columns in order. Four rows run side by side so their
// chains overlap; a row remainder runs one row at a time. rows, cols >= 1.
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
	VMOVUPD ·tailSign(SB), Y15

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
	CMPQ        CX, R13
	JGE         tail4
	VMOVUPD     (DI)(CX*1), Y4   // v[c:c+4]
	VFMADD231PD (SI)(CX*1), Y4, Y0 // s = fma(w[r][c:c+4], v[c:c+4], s)
	VFMADD231PD (R11)(CX*1), Y4, Y1
	VFMADD231PD (AX)(CX*1), Y4, Y2
	VFMADD231PD (R12)(CX*1), Y4, Y3
	ADDQ        $32, CX
	JMP         vec4

tail4:
	CMPQ        CX, R9
	JGE         sum4
	VMOVSD      (DI)(CX*1), X4   // (v[c], 0, 0, 0)
	VORPD       Y15, Y4, Y4      // (v[c], -0, -0, -0)
	VMOVSD      (SI)(CX*1), X5
	VFMADD231PD Y5, Y4, Y0
	VMOVSD      (R11)(CX*1), X6
	VFMADD231PD Y6, Y4, Y1
	VMOVSD      (AX)(CX*1), X7
	VFMADD231PD Y7, Y4, Y2
	VMOVSD      (R12)(CX*1), X8
	VFMADD231PD Y8, Y4, Y3
	ADDQ        $8, CX
	JMP         tail4

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
	CMPQ        CX, R13
	JGE         tail1
	VMOVUPD     (DI)(CX*1), Y4
	VFMADD231PD (SI)(CX*1), Y4, Y0
	ADDQ        $32, CX
	JMP         vec1

tail1:
	CMPQ        CX, R9
	JGE         sum1
	VMOVSD      (DI)(CX*1), X4
	VORPD       Y15, Y4, Y4
	VMOVSD      (SI)(CX*1), X5
	VFMADD231PD Y5, Y4, Y0
	ADDQ        $8, CX
	JMP         tail1

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
// out[c] = fma(w[r][c], v[r], out[c]) for every r in order from +0. A block
// of 16 output columns stays in four registers while the rows stream past;
// then blocks of 4, then one masked block of the last 1–3 columns.
// rows, cols >= 1.
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
	XORQ BX, BX                  // column offset of the block in bytes

blk16:
	CMPQ   BX, R11
	JGE    blk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(BX*1), AX        // w[0][block]
	XORQ   CX, CX

row16:
	VBROADCASTSD (DI)(CX*8), Y4
	VFMADD231PD  (AX), Y4, Y0    // out[c:c+4] = fma(w[r][c:c+4], v[r], out[c:c+4])
	VFMADD231PD  32(AX), Y4, Y1
	VFMADD231PD  64(AX), Y4, Y2
	VFMADD231PD  96(AX), Y4, Y3
	ADDQ         R10, AX
	INCQ         CX
	CMPQ         CX, R8
	JLT          row16
	VMOVUPD      Y0, (DX)(BX*1)
	VMOVUPD      Y1, 32(DX)(BX*1)
	VMOVUPD      Y2, 64(DX)(BX*1)
	VMOVUPD      Y3, 96(DX)(BX*1)
	ADDQ         $128, BX
	JMP          blk16

blk4:
	CMPQ   BX, R12
	JGE    tail
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(BX*1), AX
	XORQ   CX, CX

row4:
	VBROADCASTSD (DI)(CX*8), Y4
	VFMADD231PD  (AX), Y4, Y0
	ADDQ         R10, AX
	INCQ         CX
	CMPQ         CX, R8
	JLT          row4
	VMOVUPD      Y0, (DX)(BX*1)
	ADDQ         $32, BX
	JMP          blk4

tail:
	CMPQ    BX, R9
	JGE     doneT
	MOVQ    R9, AX
	SUBQ    BX, AX               // bytes in the last 1–3 columns
	LEAQ    ·tailMask+32(SB), CX
	SUBQ    AX, CX
	VMOVUPD (CX), Y14            // their lanes set
	VXORPD  Y0, Y0, Y0
	LEAQ    (SI)(BX*1), AX
	XORQ    CX, CX

row1:
	VMASKMOVPD   (AX), Y14, Y5   // w[r][c:cols], the other lanes 0
	VBROADCASTSD (DI)(CX*8), Y4
	VFMADD231PD  Y5, Y4, Y0
	ADDQ         R10, AX
	INCQ         CX
	CMPQ         CX, R8
	JLT          row1
	VMASKMOVPD   Y0, Y14, (DX)(BX*1)

doneT:
	VZEROUPPER
	RET

// func addOuter64(m, u, v *float64, a float64, rows, cols int64)
//
// m[r][c] = fma(au, v[c], m[r][c]) with au = a*u[r] rounded on its own: 16
// columns a step, then 4, then one masked step of the last 1–3 columns.
// rows, cols >= 1.
TEXT ·addOuter64(SB), NOSPLIT, $0-48
	MOVQ    m+0(FP), SI
	MOVQ    u+8(FP), DI
	MOVQ    v+16(FP), DX
	VMOVSD  a+24(FP), X14
	MOVQ    rows+32(FP), R8
	MOVQ    cols+40(FP), R9
	MOVQ    R9, R10
	SHLQ    $3, R10              // row stride in bytes
	MOVQ    R9, R11
	ANDQ    $-16, R11
	SHLQ    $3, R11              // bytes covered by 16-column steps
	MOVQ    R9, R12
	ANDQ    $-4, R12
	SHLQ    $3, R12              // bytes covered by 4-column steps
	SHLQ    $3, R9               // bytes in a row
	MOVQ    R9, AX
	SUBQ    R12, AX              // bytes in the last 0–3 columns
	LEAQ    ·tailMask+32(SB), CX
	SUBQ    AX, CX
	VMOVUPD (CX), Y13            // their lanes set
	XORQ    CX, CX               // row index

rowO:
	VMOVSD       (DI)(CX*8), X4
	VMULSD       X4, X14, X4     // au = a * u[r]
	VBROADCASTSD X4, Y4
	XORQ         BX, BX

c16:
	CMPQ        BX, R11
	JGE         c4
	VMOVUPD     (SI)(BX*1), Y6
	VFMADD231PD (DX)(BX*1), Y4, Y6 // m[r][c:c+4] = fma(au, v[c:c+4], m[r][c:c+4])
	VMOVUPD     Y6, (SI)(BX*1)
	VMOVUPD     32(SI)(BX*1), Y8
	VFMADD231PD 32(DX)(BX*1), Y4, Y8
	VMOVUPD     Y8, 32(SI)(BX*1)
	VMOVUPD     64(SI)(BX*1), Y10
	VFMADD231PD 64(DX)(BX*1), Y4, Y10
	VMOVUPD     Y10, 64(SI)(BX*1)
	VMOVUPD     96(SI)(BX*1), Y12
	VFMADD231PD 96(DX)(BX*1), Y4, Y12
	VMOVUPD     Y12, 96(SI)(BX*1)
	ADDQ        $128, BX
	JMP         c16

c4:
	CMPQ        BX, R12
	JGE         c1
	VMOVUPD     (SI)(BX*1), Y6
	VFMADD231PD (DX)(BX*1), Y4, Y6
	VMOVUPD     Y6, (SI)(BX*1)
	ADDQ        $32, BX
	JMP         c4

c1:
	CMPQ        BX, R9
	JGE         nextO
	VMASKMOVPD  (SI)(BX*1), Y13, Y6
	VMASKMOVPD  (DX)(BX*1), Y13, Y5
	VFMADD231PD Y5, Y4, Y6
	VMASKMOVPD  Y6, Y13, (SI)(BX*1)

nextO:
	ADDQ R10, SI
	INCQ CX
	CMPQ CX, R8
	JLT  rowO
	VZEROUPPER
	RET

// func axpy64(dst, src *float64, a float64, n int64)
//
// dst[i] = fma(a, src[i], dst[i]): 16 elements a step, then 4, then one.
// n >= 1.
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
	CMPQ        BX, R11
	JGE         a4
	VMOVUPD     (SI)(BX*1), Y6
	VFMADD231PD (DX)(BX*1), Y4, Y6 // dst[i:i+4] = fma(a, src[i:i+4], dst[i:i+4])
	VMOVUPD     Y6, (SI)(BX*1)
	VMOVUPD     32(SI)(BX*1), Y8
	VFMADD231PD 32(DX)(BX*1), Y4, Y8
	VMOVUPD     Y8, 32(SI)(BX*1)
	VMOVUPD     64(SI)(BX*1), Y10
	VFMADD231PD 64(DX)(BX*1), Y4, Y10
	VMOVUPD     Y10, 64(SI)(BX*1)
	VMOVUPD     96(SI)(BX*1), Y12
	VFMADD231PD 96(DX)(BX*1), Y4, Y12
	VMOVUPD     Y12, 96(SI)(BX*1)
	ADDQ        $128, BX
	JMP         a16

a4:
	CMPQ        BX, R12
	JGE         a1
	VMOVUPD     (SI)(BX*1), Y6
	VFMADD231PD (DX)(BX*1), Y4, Y6
	VMOVUPD     Y6, (SI)(BX*1)
	ADDQ        $32, BX
	JMP         a4

a1:
	CMPQ        BX, R9
	JGE         doneA
	VMOVSD      (SI)(BX*1), X6
	VFMADD231SD (DX)(BX*1), X4, X6
	VMOVSD      X6, (SI)(BX*1)
	ADDQ        $8, BX
	JMP         a1

doneA:
	VZEROUPPER
	RET
