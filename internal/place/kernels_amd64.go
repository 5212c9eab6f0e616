package place

import (
	"math"

	"macro3d/internal/geom"
)

// expKernel replays, four lanes at a time, the FMA path of Go's amd64
// math.Exp (math/exp_amd64.s): k = round(x·log₂e), r = (x − k·LN2U −
// k·LN2L)/16 with both subtractions fused, the eight-term Horner chain
// in fused multiply-adds, four squarings of 1 + r' back to e^x (the
// last fused with its +1) and the exact scale by 2^k. Every lane runs
// the same IEEE operations in the same order as one scalar call, so
// each result is math.Exp's to the bit. It stores e^src[i] into dst[i]
// block by block and returns how many elements it stored: it stops at
// the tail of fewer than four, or at the first block holding an
// argument that is not |x| ≤ expRange (NaN included). len(dst) ≥
// len(src).
//
//go:noescape
func expKernel(dst, src []float64) int

// waNets is netPass over nets [lo, hi) with ig = 1/γ (wa_amd64.s): a
// net's four WA sum pairs in the four lanes (x max side, x min side, y
// max side, y min side: one pinExp and [x, x, y, y] a pin), the four
// reciprocals in one division, and a pin's two gradient components from
// one lane pair each. Every lane runs netPass's own multiplies, adds and
// divisions in its order, unfused, so slotGrad gets netPass's bits.
//
//go:noescape
func waNets(netStart, slotPin []int32, force []bool, wnet []float64, pos []geom.Point, exps []pinExp, grad []geom.Point, ig float64, lo, hi int)

// cpuid and xgetbv read the processor's feature leaves and the
// operating system's enabled register state (XCR0).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useKernels gates the vector kernels: the processor has AVX2 and FMA,
// the operating system saves the YMM registers, and expKernel
// reproduces math.Exp on expProbe. The probe is what ties the kernel to
// the path math.Exp takes: with FMA switched off for the runtime
// (GODEBUG=cpu.fma=off, or no AVX), math.Exp takes its plain path,
// whose roundings differ on those arguments, and the placer stays on
// its scalar Go.
var useKernels = hasAVX2FMA() && expKernelMatchesProbe()

func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// expKernelMatchesProbe reports whether the kernel takes both blocks of
// expProbe and returns math.Exp's bits on each argument.
func expKernelMatchesProbe() bool {
	var dst [len(expProbe)]float64
	if expKernel(dst[:], expProbe[:]) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}
