//go:build !amd64

package place

import "macro3d/internal/geom"

// There are no vector kernels off amd64: the gate stays shut, expSlice
// loops over math.Exp and netPass runs its scalar loops.
var useKernels = false

func hasAVX2FMA() bool { return false }

func expKernel(dst, src []float64) int { return 0 }

func waNets(netStart, slotPin []int32, force []bool, wnet []float64, pos []geom.Point, exps []pinExp, grad []geom.Point, ig float64, lo, hi int) {
	panic("place: no vector net pass on this architecture")
}
