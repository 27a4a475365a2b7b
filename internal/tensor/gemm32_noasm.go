//go:build !amd64

package tensor

// Non-amd64 targets run the portable kernel only.
const cpuKernel = kernelPortable

func gemm32Asm(x, wt *Matrix32, bias Vector32, y *Matrix32, act Act32) {
	panic("tensor: assembly GEMM called on a target without one")
}
