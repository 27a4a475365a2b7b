package tensor

import (
	"fmt"
	"os"
)

// Float32 fused GEMM: y = act(x · wt + bias), the per-layer kernel of the
// compiled inference engine. The weight matrix arrives pre-transposed and
// column-padded (see TransposedPadded32): wt row t holds the weights of input
// t across all outputs, padded to a multiple of 16 columns, so the vector
// microkernels stream 16 outputs per row step with no tails.
//
// Conventions, enforced by Gemm32BiasActInto:
//   - x is M×K with any stride
//   - wt is K×N with Stride = PadTo16-style padded width Np (multiple of 16
//     for the SIMD path), padding columns zero
//   - bias has length Np, padding zero
//   - y is M×N with Stride >= Np; the kernel writes columns [0, Np) of each
//     row and keeps the padding columns at zero, so Row(i) is the result
//
// On amd64 the inner kernel is assembly, chosen once at start-up from what
// the CPU and OS support: gemm8x16 (AVX-512F: eight input rows against a
// 16-column weight block, one zmm accumulator per row) or gemm4x16 (AVX2+FMA:
// four rows, two ymm accumulators per row), bias preloaded into the
// accumulators and the activation applied before the store. Both run the same
// per-element sequence — acc = bias; acc = fma(x[t], wt[t][j], acc) for t in
// order; max(acc, 0.01·acc) — so their results are bit-identical and which
// one answered never shows in a prediction. Everywhere else, and under
// ZEROTUNE_NOSIMD, a 4-way-unrolled pure-Go kernel with identical conventions
// runs instead; it agrees with the vector kernels to float32 rounding, not bit
// for bit: it rounds each product before adding it (float32(a*w), which no
// target fuses), where the vector kernels fuse.

// Act32 selects the activation fused into the float32 GEMM kernel.
type Act32 int64

const (
	// Act32Identity stores the pre-activation unchanged.
	Act32Identity Act32 = 0
	// Act32LeakyReLU stores max(v, 0.01*v), matching nn.LeakyReLU.
	Act32LeakyReLU Act32 = 1
)

// kernel identifies a GEMM implementation, ordered by vector width: a CPU
// that can run one can run every kernel below it. The same choice covers the
// float64 paths training runs (MulVec, MulVecAddBias, MulVecT,
// AddOuterInPlace, AxpyInPlace, AddInPlace, the batched GemmBiasInto,
// GemmTInto and AddOuterRowsInPlace, and AdamInPlace): kernelAVX2 and
// kernelAVX512 alike run their one AVX2+FMA version, and kernelPortable the
// Go loops. Their contract is fused multiply-add in one documented order per
// element: the Go loops call math.FMA, which rounds once on every platform,
// the kernels issue one VFMADD231PD for each such call, lane j of a vector is
// the loop's partial sum j, and every other product or sum rounds on its own
// in both. So unlike the float32 GEMM, which kernel ran never shows in a
// float64 result.
type kernel int

const (
	kernelPortable kernel = iota
	kernelAVX2
	kernelAVX512
)

var kernelNames = [...]string{kernelPortable: "portable", kernelAVX2: "avx2", kernelAVX512: "avx512"}

// active is the kernel Gemm32BiasActInto and the float64 vector paths run:
// the widest the CPU supports, or the portable one when ZEROTUNE_NOSIMD is
// set. Tests pin it via SetSIMD.
var active = startKernel()

func startKernel() kernel {
	if os.Getenv("ZEROTUNE_NOSIMD") != "" {
		return kernelPortable
	}
	return cpuKernel
}

const cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX: XGETBV is usable

// kernelFor is the selection rule as a function of the three words it reads:
// CPUID.1:ECX, CPUID.(7,0):EBX and XCR0 (zero when OSXSAVE is clear). Each
// kernel needs the one below it, so an AVX-512 CPU whose OS saves only ymm
// state runs the AVX2 kernel.
func kernelFor(ecx1, ebx7, xcr0 uint32) kernel {
	const (
		fma     = 1 << 12 // leaf 1 ECX
		avx     = 1 << 28
		avx2    = 1 << 5 // leaf 7 EBX
		avx512f = 1 << 16
		// XCR0: the OS saves xmm (bit 1) and ymm (bit 2) state; for AVX-512
		// also the opmask registers (bit 5) and both zmm halves (bits 6, 7).
		xcrYMM = 0x06
		xcrZMM = 0xe0
	)
	const need1 = fma | cpuidOSXSAVE | avx
	if ecx1&need1 != need1 || xcr0&xcrYMM != xcrYMM || ebx7&avx2 == 0 {
		return kernelPortable
	}
	if ebx7&avx512f == 0 || xcr0&xcrZMM != xcrZMM {
		return kernelAVX2
	}
	return kernelAVX512
}

// Kernel names the GEMM kernel in use: "avx512", "avx2" or "portable". Under
// either vector kernel the float64 paths run their AVX2+FMA kernels.
func Kernel() string { return kernelNames[active] }

// SIMDEnabled reports whether an assembly kernel is active.
func SIMDEnabled() bool { return active != kernelPortable }

// SetSIMD pins the named kernel (a Kernel value), for the float32 GEMM and
// the float64 vector paths alike, and returns the name of the previous one. A kernel the CPU cannot run selects the widest one below it
// that it can, so callers compare Kernel() with what they asked for. Not safe
// for concurrent use; intended for tests and benchmarks.
func SetSIMD(name string) string {
	prev := Kernel()
	for k, n := range kernelNames {
		if n == name {
			active = min(kernel(k), cpuKernel)
			return prev
		}
	}
	panic(fmt.Sprintf("tensor: SetSIMD(%q): no such kernel", name))
}

// Gemm32BiasActInto computes y = act(x · wt + bias) under the package
// conventions above. x must not alias y.
func Gemm32BiasActInto(x, wt *Matrix32, bias Vector32, y *Matrix32, act Act32) {
	m, k, np := x.Rows, x.Cols, wt.Stride
	if wt.Rows != k || y.Rows != m || y.Cols != wt.Cols || len(bias) != np || y.Stride < np {
		panic(fmt.Sprintf("tensor: Gemm32BiasActInto shape mismatch x %dx%d/%d wt %dx%d/%d bias %d y %dx%d/%d",
			x.Rows, x.Cols, x.Stride, wt.Rows, wt.Cols, wt.Stride, len(bias), y.Rows, y.Cols, y.Stride))
	}
	if m == 0 {
		return
	}
	if active != kernelPortable && np%16 == 0 && k > 0 && m >= 4 {
		gemm32Asm(x, wt, bias, y, act)
		return
	}
	gemm32Go(x, wt, bias, y, act, 0, m)
}

// gemm32Go is the portable kernel for rows [i0, i1): bias copy, then one
// 4-way-unrolled axpy per non-zero input element, then the activation over
// the padded width (padding is zero-in, zero-out for both activations).
func gemm32Go(x, wt *Matrix32, bias Vector32, y *Matrix32, act Act32, i0, i1 int) {
	k, np := x.Cols, wt.Stride
	for i := i0; i < i1; i++ {
		xrow := x.Data[i*x.Stride : i*x.Stride+k : i*x.Stride+k]
		yrow := y.Data[i*y.Stride : i*y.Stride+np : i*y.Stride+np]
		copy(yrow, bias)
		for t := 0; t < k; t++ {
			a := xrow[t]
			if a == 0 {
				continue
			}
			wrow := wt.Data[t*np : t*np+np : t*np+np]
			j := 0
			for ; j+3 < np; j += 4 {
				yrow[j] += float32(a * wrow[j])
				yrow[j+1] += float32(a * wrow[j+1])
				yrow[j+2] += float32(a * wrow[j+2])
				yrow[j+3] += float32(a * wrow[j+3])
			}
			for ; j < np; j++ {
				yrow[j] += float32(a * wrow[j])
			}
		}
		if act == Act32LeakyReLU {
			for j, v := range yrow {
				if s := 0.01 * v; s > v {
					yrow[j] = s
				}
			}
		}
	}
}
