//go:build amd64

package tensor

// gemm4x16 is the AVX2+FMA microkernel; see gemm32_amd64.s. Only call when
// cpuKernel >= kernelAVX2.
//
//go:noescape
func gemm4x16(x0, x1, x2, x3, wt, bias *float32, y0, y1, y2, y3 *float32, k, ldwt, act int64)

// gemm8x16 is the AVX-512F microkernel: eight consecutive rows of x (row
// stride ldx floats) against one 16-column weight block, into eight rows of y
// (row stride ldy); see gemm32_amd64.s. Needs k >= 1. Only call when
// cpuKernel == kernelAVX512.
//
//go:noescape
func gemm8x16(x, wt, bias, y *float32, k, ldx, ldwt, ldy, act int64)

// gemm32Asm drives the assembly microkernels over all rows and column blocks:
// row groups of 8 through the AVX-512 kernel where it is active and m >= 8,
// groups of 4 through the AVX2 kernel otherwise. A row remainder is handled by
// sliding the last group back to end at row m: the rows it shares with the
// group before are recomputed to identical values, so the overlap is harmless
// and keeps the kernels fixed shape. Requires m >= 4, k >= 1, np%16 == 0.
func gemm32Asm(x, wt *Matrix32, bias Vector32, y *Matrix32, act Act32) {
	m, k, np := x.Rows, x.Cols, wt.Stride
	xs, ys := x.Stride, y.Stride
	wide := active == kernelAVX512 && m >= 8
	for j := 0; j < np; j += 16 {
		wtj := &wt.Data[j]
		bj := &bias[j]
		if wide {
			for i := 0; i < m; i += 8 {
				r := min(i, m-8)
				gemm8x16(&x.Data[r*xs], wtj, bj, &y.Data[r*ys+j], int64(k), int64(xs), int64(np), int64(ys), int64(act))
			}
			continue
		}
		for i := 0; i < m; i += 4 {
			r := min(i, m-4)
			gemm4x16(
				&x.Data[r*xs], &x.Data[(r+1)*xs], &x.Data[(r+2)*xs], &x.Data[(r+3)*xs],
				wtj, bj,
				&y.Data[r*ys+j], &y.Data[(r+1)*ys+j], &y.Data[(r+2)*ys+j], &y.Data[(r+3)*ys+j],
				int64(k), int64(np), int64(act))
		}
	}
}
