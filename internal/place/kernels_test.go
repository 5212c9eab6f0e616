package place

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"

	"macro3d/internal/piton"
)

// expArgs is the arguments TestExpSliceMatchesMathExp holds expSlice to
// math.Exp on: the edges of the kernel's range and of math.Exp's, the
// arguments whose x·log₂e rounds to a halfway point n + ½ (where the
// rounding of k to even decides the reduction), then 1 M draws over
// ±expRange, one in 64 of them from ±30 where the placer's arguments sit.
func expArgs(t *testing.T) []float64 {
	const log2e = 1.4426950408889634073599246810018920
	args := []float64{
		0, math.Copysign(0, -1), expRange, -expRange,
		math.Nextafter(expRange, 1000), math.Nextafter(-expRange, -1000),
		5e-324, -5e-324, 1e-300, 0.5, -0.5, 1, -1, math.Ln2, -math.Ln2,
		709.78, 709.79, 710, -708, -740, -745.2, -746, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	halfway := 0
	for n := -1010; n <= 1010; n += 7 {
		x := (float64(n) + 0.5) / log2e
		for range 64 {
			if x*log2e == float64(n)+0.5 {
				args = append(args, x)
				halfway++
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	if halfway < 50 {
		t.Fatalf("only %d arguments with x·log₂e on a halfway point", halfway)
	}
	var s uint64 = 1
	for i := range 1 << 20 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u := float64(s>>11)/(1<<53)*2 - 1
		if i%64 == 0 {
			args = append(args, 30*u)
		} else {
			args = append(args, expRange*u)
		}
	}
	return args
}

// TestExpSliceMatchesMathExp holds expSlice to math.Exp bit for bit, on
// the kernel where the gate is open and on the scalar fallback, at every
// offset and tail length — out-of-range and NaN arguments land in every
// lane of a block.
func TestExpSliceMatchesMathExp(t *testing.T) {
	args := expArgs(t)
	want := make([]float64, len(args))
	for i, x := range args {
		want[i] = math.Exp(x)
	}
	check := func(kernel bool) {
		defer func(was bool) { useKernels = was }(useKernels)
		useKernels = kernel
		got := make([]float64, len(args))
		for off := range expLanes {
			clear(got)
			expSlice(got[off:], args[off:])
			for i := off; i < len(args); i++ {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("kernel=%v offset %d: exp(%v) = %v (%#x), math.Exp %v (%#x)",
						kernel, off, args[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		for n := range 3 * expLanes {
			clear(got[:n])
			expSlice(got[:n], args[:n])
			for i := range n {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("kernel=%v length %d: exp(%v) = %v, math.Exp %v", kernel, n, args[i], got[i], want[i])
				}
			}
		}
	}
	if useKernels {
		check(true)
	}
	check(false)
}

// TestExpKernelStopsAtRange: the kernel stores whole blocks only and
// stops at the first one holding an argument past ±expRange or a NaN.
func TestExpKernelStopsAtRange(t *testing.T) {
	if !useKernels {
		t.Skip("no vector kernel on this processor")
	}
	dst := make([]float64, 11)
	for _, bad := range []float64{math.Nextafter(expRange, 1000), -701, math.NaN(), math.Inf(-1)} {
		for at := range 11 {
			src := make([]float64, 11)
			src[at] = bad
			want := min(at/expLanes*expLanes, 8)
			if n := expKernel(dst, src); n != want {
				t.Errorf("%v at %d: kernel took %d, want %d", bad, at, n, want)
			}
		}
	}
}

// TestExpGate: the kernel runs exactly where the processor has AVX2 and
// FMA (never off amd64) and math.Exp takes its FMA path.
// GODEBUG=cpu.fma=off switches math.Exp to its plain path, so the probe
// must shut the gate; the test re-runs itself under that setting to see
// it.
func TestExpGate(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if useKernels {
			t.Fatal("GODEBUG=cpu.fma=off: the gate is open, but math.Exp takes its plain path")
		}
		return
	}
	if useKernels != hasAVX2FMA() {
		t.Fatalf("gate %v on a processor with AVX2 and FMA %v", useKernels, hasAVX2FMA())
	}
	if !useKernels {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpGate$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestExpProbeSeparatesPaths: on every probe argument the two paths of
// Go's amd64 exponential, replayed here in portable Go, round apart, and
// math.Exp is one of them — so the probe tells which one math.Exp takes.
func TestExpProbeSeparatesPaths(t *testing.T) {
	for _, x := range expProbe {
		fma, plain := expFMAPath(x), expPlainPath(x)
		if fma == plain {
			t.Errorf("exp(%v): both paths give %v", x, fma)
		}
		if e := math.Exp(x); runtime.GOARCH == "amd64" && e != fma && e != plain {
			t.Errorf("exp(%v): math.Exp %v is neither the FMA path's %v nor the plain path's %v", x, e, fma, plain)
		}
	}
}

// The constants of math/exp_amd64.s.
const (
	archLog2e = 1.4426950408889634073599246810018920
	archLn2U  = 0.69314718055966295651160180568695068359375
	archLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var archTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
}

// expFMAPath and expPlainPath replay the two paths of Go's amd64
// exponential for |x| ≤ expRange; float64(…) keeps each product rounded
// on its own, as the spec allows an unconverted x*y + z to fuse.
func expFMAPath(x float64) float64 {
	k := math.RoundToEven(float64(x * archLog2e))
	r := math.FMA(-k, archLn2U, x)
	r = float64(math.FMA(-k, archLn2L, r) * 0.0625)
	p := archTaylor[0]
	for _, c := range archTaylor[1:] {
		p = math.FMA(r, p, c)
	}
	r = float64(r * p)
	for range 3 {
		r = float64(r * float64(r+2))
	}
	r = math.FMA(float64(r+2), r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

func expPlainPath(x float64) float64 {
	k := math.RoundToEven(float64(x * archLog2e))
	r := float64(x - float64(k*archLn2U))
	r = float64(float64(r-float64(k*archLn2L)) * 0.0625)
	p := archTaylor[0]
	for _, c := range archTaylor[1:] {
		p = float64(float64(p*r) + c)
	}
	r = float64(r * p)
	for range 4 {
		r = float64(r * float64(2+r))
	}
	r = float64(r + 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// BenchmarkExpSlice is the exponentials of one placer pass's worth of
// arguments, 16 k in the range the placer's take, through expSlice with
// the gate as it stands and through math.Exp one at a time.
func BenchmarkExpSlice(b *testing.B) {
	src, dst := make([]float64, 16384), make([]float64, 16384)
	for i := range src {
		src[i] = 28 * math.Sin(float64(i))
	}
	b.Run("expSlice", func(b *testing.B) {
		for range b.N {
			expSlice(dst, src)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for range b.N {
			for i, x := range src {
				dst[i] = math.Exp(x)
			}
		}
	})
}

// TestWANetsMatchesNetPass holds the vector net pass to netPass's
// scalar loops bit for bit: every slot gradient on the three tiles and
// the 600-bin-wide die, at both ends of the γ schedule, over nets whose
// pins coincide, sit twice on one cell or are all frozen, and in chunks
// that start and end anywhere.
func TestWANetsMatchesNetPass(t *testing.T) {
	if !useKernels {
		t.Skip("no vector kernels on this processor")
	}
	defer func() { useKernels = true }()
	check := func(t *testing.T, st *analyticState) {
		for _, gamma := range []float64{4 * st.pitch, 0.5 * st.pitch} {
			st.gamma = gamma
			st.expPass(0, 0, len(st.movID)+len(st.pos)-st.frozen0)
			useKernels = false
			clear(st.slotGrad)
			st.netPass(0, 0, len(st.wnet))
			want := slices.Clone(st.slotGrad)
			useKernels = true
			clear(st.slotGrad)
			third := len(st.wnet) / 3
			st.netPass(0, 0, third)
			st.netPass(0, third, len(st.wnet)-1)
			st.netPass(0, len(st.wnet)-1, len(st.wnet))
			for s, g := range st.slotGrad {
				w := want[s]
				if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
					t.Fatalf("γ %g slot %d: vector gradient %.17g, scalar %.17g", gamma, s, g, w)
				}
			}
		}
	}
	for _, cfg := range []piton.Config{piton.Tiny(), piton.SmallCache(), piton.LargeCache()} {
		t.Run(cfg.Name, func(t *testing.T) {
			_, _, _, st := analyticFixture(t, cfg)
			check(t, st)
		})
	}
	t.Run("widest-grid", func(t *testing.T) { check(t, wideFixture(t)) })
}
