// Register-tiled AVX2 kernels of the float64 batched paths: GemmBiasInto,
// GemmTInto and AddOuterRowsInPlace. Each computes every output element with
// exactly the operations of the one-vector kernel it batches (mulVec64,
// mulVecT64, addOuter64 in matvec64_amd64.s, themselves bit-identical to the
// Go loops): the same lanes, products and sums in the same order, no fused
// multiply-add, the same tails and zero skips. What the tiles change is only
// which elements share a pass: two input rows read each weight load, and an
// accumulator stays in a register for the whole reduction instead of being
// stored and reloaded once per sample.

#include "textflag.h"

// func gemmBias64(w, x, b, y *float64, n, quads, cols, ldy int64)
//
// y[i][r] = ((s0+s1)+(s2+s3)) + b[r] for x rows i < n and w rows r < 4·quads,
// where lane j of the accumulator sums w[r][c]*x[i][c] over c ≡ j (mod 4)
// below cols&^3 and lane 0 then adds the tail products in column order: the
// mulVec64 sum of each pair (x row, w row). Tiles are two x rows by four w
// rows, eight accumulators. x and w have row stride cols, y has ldy. n is
// even and >= 2; quads, cols >= 1. The quads argument slot counts down.
TEXT ·gemmBias64(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), SI
	MOVQ b+16(FP), BX
	MOVQ cols+48(FP), R9
	MOVQ R9, R13
	ANDQ $-4, R13
	SHLQ $3, R13                 // bytes covered by whole 4-column steps
	SHLQ $3, R9                  // bytes in a row of x or w
	MOVQ ldy+56(FP), R10
	SHLQ $3, R10                 // row stride of y in bytes

quadG:
	LEAQ (SI)(R9*1), R11         // w row 1 of the quad
	LEAQ (R11)(R9*1), AX         // w row 2
	LEAQ (AX)(R9*1), R12         // w row 3
	MOVQ x+8(FP), DI
	MOVQ y+24(FP), DX
	MOVQ n+32(FP), R8

pairG:
	LEAQ   (DI)(R9*1), R14       // x row 1 of the pair
	VXORPD Y0, Y0, Y0            // Y0..Y3: x row 0 against w rows 0..3
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4            // Y4..Y7: x row 1 against w rows 0..3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   CX, CX

vecG:
	CMPQ    CX, R13
	JGE     tailG
	VMOVUPD (DI)(CX*1), Y8       // x0[c:c+4]
	VMOVUPD (R14)(CX*1), Y9      // x1[c:c+4]
	VMOVUPD (SI)(CX*1), Y10
	VMULPD  Y8, Y10, Y11         // w0[c:c+4] * x0[c:c+4]
	VADDPD  Y11, Y0, Y0
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD (R11)(CX*1), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y5, Y5
	VMOVUPD (AX)(CX*1), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y6, Y6
	VMOVUPD (R12)(CX*1), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ    $32, CX
	JMP     vecG

tailG:
	CMPQ    CX, R9
	JGE     sumG
	VMOVSD  (DI)(CX*1), X8       // (x0[c], 0, 0, 0)
	VMOVSD  (R14)(CX*1), X9
	VMOVSD  (SI)(CX*1), X10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y4, Y4
	VMOVSD  (R11)(CX*1), X10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y5, Y5
	VMOVSD  (AX)(CX*1), X10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y6, Y6
	VMOVSD  (R12)(CX*1), X10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ    $8, CX
	JMP     tailG

sumG:
	VHADDPD    Y1, Y0, Y8        // (r0 s0+s1, r1 s0+s1, r0 s2+s3, r1 s2+s3)
	VHADDPD    Y3, Y2, Y9        // the same for w rows 2 and 3
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y10     // (s0+s1)+(s2+s3) of w rows 0..3
	VADDPD     (BX), Y10, Y10    // + b[r:r+4]
	VMOVUPD    Y10, (DX)
	VHADDPD    Y5, Y4, Y8        // the same for x row 1
	VHADDPD    Y7, Y6, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y10
	VADDPD     (BX), Y10, Y10
	VMOVUPD    Y10, (DX)(R10*1)
	LEAQ       (R14)(R9*1), DI   // next pair of x rows
	LEAQ       (DX)(R10*2), DX
	SUBQ       $2, R8
	JNZ        pairG

	LEAQ (R12)(R9*1), SI         // next quad of w rows
	ADDQ $32, BX
	MOVQ y+24(FP), DX
	ADDQ $32, DX                 // its four columns of y
	MOVQ DX, y+24(FP)
	DECQ quads+40(FP)
	JNZ  quadG
	VZEROUPPER
	RET

// func gemmT64(w, d, y *float64, n, rows, cols int64)
//
// y[i][c] = Σ_r w[r][c]*d[i][r], summed in row order from +0 and skipping the
// rows where d[i][r] == 0 (a NaN is not skipped): the mulVecT64 sum of each d
// row. Two d rows share every weight load; a block of 16 columns of both stays
// in eight registers while the w rows stream past, then blocks of 4, then
// single columns. w and y have row stride cols, d has rows. n is even and
// >= 2; rows, cols >= 1.
TEXT ·gemmT64(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ d+8(FP), DI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), R13
	MOVQ rows+32(FP), R8
	MOVQ cols+40(FP), R9
	MOVQ R9, R11
	ANDQ $-16, R11
	SHLQ $3, R11                 // bytes covered by 16-column blocks
	MOVQ R9, R12
	ANDQ $-4, R12
	SHLQ $3, R12                 // bytes covered by 4-column blocks
	SHLQ $3, R9                  // bytes in a row of w or y
	VXORPD X15, X15, X15

pairT:
	LEAQ (DI)(R8*8), R14         // d row 1 of the pair
	XORQ BX, BX                  // column offset of the block in bytes

blk16T:
	CMPQ   BX, R11
	JGE    blk4T
	VXORPD Y0, Y0, Y0            // Y0..Y3: d row 0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4            // Y4..Y7: d row 1
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(BX*1), AX        // w[0][block]
	XORQ   CX, CX

row16T:
	CMPQ     CX, R8
	JGE      store16T
	VMOVUPD  (AX), Y8
	VMOVUPD  32(AX), Y9
	VMOVUPD  64(AX), Y10
	VMOVUPD  96(AX), Y11
	VMOVSD   (DI)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use16T0
	JPS      use16T0             // unordered: NaN is not zero
	JMP      skip16T0

use16T0:
	VBROADCASTSD X12, Y12
	VMULPD       Y12, Y8, Y13    // w[r][c:c+4] * d0[r]
	VADDPD       Y13, Y0, Y0
	VMULPD       Y12, Y9, Y13
	VADDPD       Y13, Y1, Y1
	VMULPD       Y12, Y10, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       Y12, Y11, Y13
	VADDPD       Y13, Y3, Y3

skip16T0:
	VMOVSD   (R14)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use16T1
	JPS      use16T1
	JMP      next16T

use16T1:
	VBROADCASTSD X12, Y12
	VMULPD       Y12, Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       Y12, Y9, Y13
	VADDPD       Y13, Y5, Y5
	VMULPD       Y12, Y10, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       Y12, Y11, Y13
	VADDPD       Y13, Y7, Y7

next16T:
	ADDQ R9, AX
	INCQ CX
	JMP  row16T

store16T:
	VMOVUPD Y0, (DX)(BX*1)
	VMOVUPD Y1, 32(DX)(BX*1)
	VMOVUPD Y2, 64(DX)(BX*1)
	VMOVUPD Y3, 96(DX)(BX*1)
	LEAQ    (DX)(R9*1), AX       // y row 1
	VMOVUPD Y4, (AX)(BX*1)
	VMOVUPD Y5, 32(AX)(BX*1)
	VMOVUPD Y6, 64(AX)(BX*1)
	VMOVUPD Y7, 96(AX)(BX*1)
	ADDQ    $128, BX
	JMP     blk16T

blk4T:
	CMPQ   BX, R12
	JGE    col1T
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	LEAQ   (SI)(BX*1), AX
	XORQ   CX, CX

row4T:
	CMPQ     CX, R8
	JGE      store4T
	VMOVUPD  (AX), Y8
	VMOVSD   (DI)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use4T0
	JPS      use4T0
	JMP      skip4T0

use4T0:
	VBROADCASTSD X12, Y12
	VMULPD       Y12, Y8, Y13
	VADDPD       Y13, Y0, Y0

skip4T0:
	VMOVSD   (R14)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use4T1
	JPS      use4T1
	JMP      next4T

use4T1:
	VBROADCASTSD X12, Y12
	VMULPD       Y12, Y8, Y13
	VADDPD       Y13, Y4, Y4

next4T:
	ADDQ R9, AX
	INCQ CX
	JMP  row4T

store4T:
	VMOVUPD Y0, (DX)(BX*1)
	LEAQ    (DX)(R9*1), AX
	VMOVUPD Y4, (AX)(BX*1)
	ADDQ    $32, BX
	JMP     blk4T

col1T:
	CMPQ   BX, R9
	JGE    nextPairT
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	LEAQ   (SI)(BX*1), AX
	XORQ   CX, CX

row1T:
	CMPQ     CX, R8
	JGE      store1T
	VMOVSD   (AX), X8
	VMOVSD   (DI)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use1T0
	JPS      use1T0
	JMP      skip1T0

use1T0:
	VMULSD X12, X8, X13
	VADDSD X13, X0, X0

skip1T0:
	VMOVSD   (R14)(CX*8), X12
	VUCOMISD X15, X12
	JNE      use1T1
	JPS      use1T1
	JMP      next1T

use1T1:
	VMULSD X12, X8, X13
	VADDSD X13, X4, X4

next1T:
	ADDQ R9, AX
	INCQ CX
	JMP  row1T

store1T:
	VMOVSD X0, (DX)(BX*1)
	LEAQ   (DX)(R9*1), AX
	VMOVSD X4, (AX)(BX*1)
	ADDQ   $8, BX
	JMP    col1T

nextPairT:
	LEAQ (R14)(R8*8), DI         // next pair of d rows
	LEAQ (DX)(R9*2), DX
	SUBQ $2, R13
	JNZ  pairT
	VZEROUPPER
	RET

// func addOuterRows64(m, d, x *float64, n, rows, cols, ldd int64)
//
// m[r][c] += d[s][r]*x[s][c] for s = 0..n-1 in order, skipping the samples
// where d[s][r] == 0 (a NaN is not skipped): the addOuter64 update with a = 1
// applied once per sample, so au = 1·d[s][r] = d[s][r]. Two rows of m by 16
// columns stay in eight registers while the samples stream past, then 2×4
// blocks, then single columns. m and x have row stride cols, d has ldd. rows
// is even and >= 2; n, cols >= 1.
TEXT ·addOuterRows64(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), SI
	MOVQ d+8(FP), R13
	MOVQ x+16(FP), DI
	MOVQ rows+32(FP), R8
	MOVQ cols+40(FP), R9
	MOVQ R9, R11
	ANDQ $-16, R11
	SHLQ $3, R11                 // bytes covered by 16-column blocks
	MOVQ R9, R12
	ANDQ $-4, R12
	SHLQ $3, R12                 // bytes covered by 4-column blocks
	SHLQ $3, R9                  // bytes in a row of g or x
	MOVQ ldd+48(FP), R10
	SHLQ $3, R10                 // row stride of d in bytes
	VXORPD X15, X15, X15

pairO:
	LEAQ (SI)(R9*1), R14         // m row 1 of the pair
	XORQ BX, BX                  // column offset of the block in bytes

blk16O:
	CMPQ    BX, R11
	JGE     blk4O
	VMOVUPD (SI)(BX*1), Y0       // Y0..Y3: m row 0
	VMOVUPD 32(SI)(BX*1), Y1
	VMOVUPD 64(SI)(BX*1), Y2
	VMOVUPD 96(SI)(BX*1), Y3
	VMOVUPD (R14)(BX*1), Y4      // Y4..Y7: m row 1
	VMOVUPD 32(R14)(BX*1), Y5
	VMOVUPD 64(R14)(BX*1), Y6
	VMOVUPD 96(R14)(BX*1), Y7
	MOVQ    DI, AX               // x[0]
	MOVQ    R13, DX              // d[0][r]
	MOVQ    n+24(FP), CX

smp16O:
	VMOVUPD  (AX)(BX*1), Y8
	VMOVUPD  32(AX)(BX*1), Y9
	VMOVUPD  64(AX)(BX*1), Y10
	VMOVUPD  96(AX)(BX*1), Y11
	VMOVSD   (DX), X12
	VUCOMISD X15, X12
	JNE      use16O0
	JPS      use16O0             // unordered: NaN is not zero
	JMP      skip16O0

use16O0:
	VBROADCASTSD X12, Y12
	VMULPD       Y8, Y12, Y13    // au * x[s][c:c+4]
	VADDPD       Y13, Y0, Y0     // m[r][c:c+4] + product
	VMULPD       Y9, Y12, Y13
	VADDPD       Y13, Y1, Y1
	VMULPD       Y10, Y12, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       Y11, Y12, Y13
	VADDPD       Y13, Y3, Y3

skip16O0:
	VMOVSD   8(DX), X12
	VUCOMISD X15, X12
	JNE      use16O1
	JPS      use16O1
	JMP      next16O

use16O1:
	VBROADCASTSD X12, Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       Y9, Y12, Y13
	VADDPD       Y13, Y5, Y5
	VMULPD       Y10, Y12, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       Y11, Y12, Y13
	VADDPD       Y13, Y7, Y7

next16O:
	ADDQ R9, AX
	ADDQ R10, DX
	DECQ CX
	JNZ  smp16O
	VMOVUPD Y0, (SI)(BX*1)
	VMOVUPD Y1, 32(SI)(BX*1)
	VMOVUPD Y2, 64(SI)(BX*1)
	VMOVUPD Y3, 96(SI)(BX*1)
	VMOVUPD Y4, (R14)(BX*1)
	VMOVUPD Y5, 32(R14)(BX*1)
	VMOVUPD Y6, 64(R14)(BX*1)
	VMOVUPD Y7, 96(R14)(BX*1)
	ADDQ    $128, BX
	JMP     blk16O

blk4O:
	CMPQ    BX, R12
	JGE     col1O
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (R14)(BX*1), Y4
	MOVQ    DI, AX
	MOVQ    R13, DX
	MOVQ    n+24(FP), CX

smp4O:
	VMOVUPD  (AX)(BX*1), Y8
	VMOVSD   (DX), X12
	VUCOMISD X15, X12
	JNE      use4O0
	JPS      use4O0
	JMP      skip4O0

use4O0:
	VBROADCASTSD X12, Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y0, Y0

skip4O0:
	VMOVSD   8(DX), X12
	VUCOMISD X15, X12
	JNE      use4O1
	JPS      use4O1
	JMP      next4O

use4O1:
	VBROADCASTSD X12, Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y4, Y4

next4O:
	ADDQ    R9, AX
	ADDQ    R10, DX
	DECQ    CX
	JNZ     smp4O
	VMOVUPD Y0, (SI)(BX*1)
	VMOVUPD Y4, (R14)(BX*1)
	ADDQ    $32, BX
	JMP     blk4O

col1O:
	CMPQ   BX, R9
	JGE    nextPairO
	VMOVSD (SI)(BX*1), X0
	VMOVSD (R14)(BX*1), X4
	MOVQ   DI, AX
	MOVQ   R13, DX
	MOVQ   n+24(FP), CX

smp1O:
	VMOVSD   (AX)(BX*1), X8
	VMOVSD   (DX), X12
	VUCOMISD X15, X12
	JNE      use1O0
	JPS      use1O0
	JMP      skip1O0

use1O0:
	VMULSD X8, X12, X13
	VADDSD X13, X0, X0

skip1O0:
	VMOVSD   8(DX), X12
	VUCOMISD X15, X12
	JNE      use1O1
	JPS      use1O1
	JMP      next1O

use1O1:
	VMULSD X8, X12, X13
	VADDSD X13, X4, X4

next1O:
	ADDQ   R9, AX
	ADDQ   R10, DX
	DECQ   CX
	JNZ    smp1O
	VMOVSD X0, (SI)(BX*1)
	VMOVSD X4, (R14)(BX*1)
	ADDQ   $8, BX
	JMP    col1O

nextPairO:
	LEAQ (R14)(R9*1), SI         // next pair of m rows
	ADDQ $16, R13                // and their column of d
	SUBQ $2, R8
	JNZ  pairO
	VZEROUPPER
	RET
