package place

import "math"

// expSlice sets dst[i] = math.Exp(src[i]) for every i of src, bit for
// bit; dst must be at least as long as src. Where the vector kernels run
// (useKernels), expKernel (exp_amd64.s) takes the arguments four at a
// time; a block with an argument outside its range goes to math.Exp, as
// does the tail of fewer than four. Elsewhere every argument does.
func expSlice(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		if useKernels {
			i += expKernel(dst[i:], src[i:])
		}
		for end := min(i+expLanes, len(src)); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
}

// expLanes is the width of expKernel's blocks.
const expLanes = 4

// expRange is the largest |x| expKernel takes. Past it the scale 2^k of
// e^x = 2^k·e^r nears the float64 exponent's ends, where Go's
// exponential leaves its plain path for overflow and subnormal handling
// the kernel does not replay.
const expRange = 700

// expProbe holds two blocks of arguments on which the FMA and the plain
// path of Go's amd64 exponential round apart
// (TestExpProbeSeparatesPaths).
var expProbe = [2 * expLanes]float64{
	-20.608844716032525, 2.465991300524115, -13.07514030210452, -12.173264361613752,
	10.864698743554253, 13.813888637688498, 11.450329890340736, -5.771802852257979,
}
