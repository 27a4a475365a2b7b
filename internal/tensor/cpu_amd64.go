//go:build amd64

package tensor

// CPU feature detection for the assembly GEMM kernels. Hand-rolled CPUID
// because the repo carries no external dependencies: a vector extension needs
// both the hardware flag and OS support for saving its register state
// (OSXSAVE + XCR0).

// cpuidex executes CPUID with the given leaf and subleaf. Implemented in
// cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable mask. Implemented in
// cpu_amd64.s. Only call when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// cpuKernel is the widest kernel this CPU and OS can run.
var cpuKernel = detectKernel()

func detectKernel() kernel {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return kernelPortable
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	_, ebx7, _, _ := cpuidex(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv0()
	}
	return kernelFor(ecx1, ebx7, xcr0)
}
