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

// TestFirstPairKernelsMatchGo runs both first stage pairs through their
// AVX kernels and their Go loops on the same input and compares the
// results by math.Float64bits: the real pair on unpadded x (realPairAVX)
// and the gathered inverse pair (gatherPairAVX), for every power of two
// from 4 to 4096 (the kernels start at 16 and 8 points). The inputs are
// TestFusedStagesKernelMatchesGo's three families; the real pair's large
// magnitudes sit just under its gate's bound, the gathered pair's span
// the whole range, so its first sums overflow to ±Inf and the products
// after them meet Inf·0, the default NaN.
func TestFirstPairKernelsMatchGo(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(19))
	var nanParts, infParts int
	for n := 4; n <= 4096; n <<= 1 {
		st := stages(n)
		noise := make([]float64, n)
		edge := make([]float64, n)
		huge := make([]float64, n)
		noiseC := make([]complex128, n)
		edgeC := make([]complex128, n)
		hugeC := make([]complex128, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
			edge[i] = edgeValues[rng.Intn(len(edgeValues))]
			huge[i] = realFastBound * (2*rng.Float64() - 1)
			noiseC[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			edgeC[i] = complex(edgeValues[rng.Intn(len(edgeValues))], edgeValues[rng.Intn(len(edgeValues))])
			hugeC[i] = complex(math.MaxFloat64*(2*rng.Float64()-1), math.MaxFloat64*(2*rng.Float64()-1))
		}
		got := make([]complex128, n)
		want := make([]complex128, n)
		for v, x := range [][]float64{noise, edge, huge} {
			if !realFastOK(x) {
				t.Fatalf("n=%d real input %d misses the real gate", n, v)
			}
			useAVX = true
			realFirstPair(got, x, st.rev, &st.fwd.pairs[0])
			useAVX = false
			realFirstPair(want, x, st.rev, &st.fwd.pairs[0])
			requireSameBits(t, fmt.Sprintf("real pair n=%d input %d", n, v), got, want)
		}
		for _, dir := range []struct {
			name string
			t    *stageTables
		}{{"forward", &st.fwd}, {"inverse", &st.inv}} {
			for v, src := range [][]complex128{noiseC, edgeC, hugeC} {
				useAVX = true
				gatherFirstPair(got, src, st.rev, dir.t)
				useAVX = false
				gatherFirstPair(want, src, st.rev, dir.t)
				requireSameBits(t, fmt.Sprintf("gathered pair n=%d %s input %d", n, dir.name, v), got, want)
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
		t.Fatalf("the gathered kernel met no overflow: %d NaN and %d Inf parts", nanParts, infParts)
	}
}
