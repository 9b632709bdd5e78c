package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// requireAVX skips the test where the CPU or the OS leaves the kernel
// off, and restores the switch after it.
func requireAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("skip: no AVX kernel here (the CPU lacks AVX or the OS does not save YMM state)")
	}
	t.Cleanup(func() { useAVX = true })
}

// TestFusedStagesKernelMatchesGo runs every stage pair after the first
// through the AVX kernel and through the Go loop on the same input and
// compares the results by math.Float64bits, for both parities of log2 n
// and both directions' tables. Beside Gaussian noise, the inputs hold the
// finite edge values (signed zeros, subnormals, magnitudes just under
// 2^1020) and magnitudes near the top of the range, so the pairs meet
// ±Inf and the default NaN of Inf - Inf and Inf·0.
func TestFusedStagesKernelMatchesGo(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(13))
	var nanParts, infParts int
	for n := 16; n <= 4096; n <<= 1 {
		noise := make([]complex128, n)
		edge := make([]complex128, n)
		huge := make([]complex128, n)
		for i := range noise {
			noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			edge[i] = complex(edgeValues[rng.Intn(len(edgeValues))], edgeValues[rng.Intn(len(edgeValues))])
			huge[i] = complex(math.MaxFloat64/2*(2*rng.Float64()-1), math.MaxFloat64/2*(2*rng.Float64()-1))
		}
		st := stages(n)
		for _, dir := range []struct {
			name string
			t    *stageTables
		}{{"forward", &st.fwd}, {"inverse", &st.inv}} {
			for v, in := range [][]complex128{noise, edge, huge} {
				if !finite(in) {
					t.Fatalf("n=%d input %d is not finite", n, v)
				}
				got := append([]complex128(nil), in...)
				want := append([]complex128(nil), in...)
				useAVX = true
				fusedStages(got, dir.t)
				useAVX = false
				fusedStages(want, dir.t)
				requireSameBits(t, fmt.Sprintf("n=%d %s input %d", n, dir.name, v), got, want)
				for _, c := range got {
					for _, p := range []float64{real(c), imag(c)} {
						if math.IsNaN(p) {
							nanParts++
						} else if math.IsInf(p, 0) {
							infParts++
						}
					}
				}
			}
		}
	}
	if nanParts == 0 || infParts == 0 {
		t.Fatalf("the kernel met no overflow: %d NaN and %d Inf parts", nanParts, infParts)
	}
}

// TestGateScansKernelMatchesGo checks the vector gate scans against the
// Go loops on every length up to 40, so every tail the kernel's unrolled
// loops leave is covered, with one refused value at each position.
func TestGateScansKernelMatchesGo(t *testing.T) {
	requireAVX(t)
	both := func(scan func() bool) (kernel, goLoop bool) {
		useAVX = true
		kernel = scan()
		useAVX = false
		return kernel, scan()
	}
	for l := 0; l <= 40; l++ {
		x := make([]complex128, l)
		r := make([]float64, l)
		for i := range x {
			x[i] = complex(float64(i), -float64(i))
			r[i] = math.Nextafter(-realFastBound, 0)
		}
		if k, g := both(func() bool { return finite(x) }); !k || !g {
			t.Fatalf("len %d finite: kernel %v, Go %v, want true", l, k, g)
		}
		if k, g := both(func() bool { return realFastOK(r) }); !k || !g {
			t.Fatalf("len %d in bound: kernel %v, Go %v, want true", l, k, g)
		}
		for i := range l {
			for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				for part := range 2 {
					saved := x[i]
					if part == 0 {
						x[i] = complex(bad, imag(saved))
					} else {
						x[i] = complex(real(saved), bad)
					}
					if k, g := both(func() bool { return finite(x) }); k || g {
						t.Fatalf("len %d, %v in part %d of %d: kernel %v, Go %v, want false", l, bad, part, i, k, g)
					}
					x[i] = saved
				}
			}
			for _, bad := range []float64{realFastBound, -math.MaxFloat64, math.Inf(1), math.NaN()} {
				saved := r[i]
				r[i] = bad
				if k, g := both(func() bool { return realFastOK(r) }); k || g {
					t.Fatalf("len %d, %v at %d: kernel %v, Go %v, want false", l, bad, i, k, g)
				}
				r[i] = saved
			}
		}
	}
}
