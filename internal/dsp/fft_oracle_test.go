package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// oracleFFT is the textbook kernel the optimized fftInternal replaced: a
// per-element bits.Reverse permutation and block-outer butterfly loops
// with the twiddle loaded (and conjugated) per butterfly. It is kept as
// the bit-identity reference.
func oracleFFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				even := x[start+k]
				odd := x[start+k+half] * w
				x[start+k] = even + odd
				x[start+k+half] = even - odd
			}
		}
	}
}

// oracleIFFT normalizes through the runtime's complex division.
func oracleIFFT(x []complex128) {
	oracleFFT(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// specials are the IEEE-754 edge values the kernel must carry through
// bit for bit: signed zeros, the smallest and largest subnormals, the
// extremes of the normal range, infinities and NaNs of both signs.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xFFF8000000000001),
}

// oracleInputs returns the length-n test vectors: Gaussian noise, noise
// with sprinkled special values, a vector drawn only from the specials,
// and a DC impulse of both-infinite parts, which leaves every bin of the
// transform both-infinite so IFFT's scaling takes the runtime's rewrite.
func oracleInputs(rng *rand.Rand, n int) [][]complex128 {
	special := func() float64 { return specials[rng.Intn(len(specials))] }
	noise := make([]complex128, n)
	sprinkled := make([]complex128, n)
	allSpecial := make([]complex128, n)
	impulse := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		re, im := rng.NormFloat64()*1e3, rng.NormFloat64()*1e-300
		if rng.Intn(8) == 0 {
			re = special()
		}
		if rng.Intn(8) == 0 {
			im = special()
		}
		sprinkled[i] = complex(re, im)
		allSpecial[i] = complex(special(), special())
	}
	impulse[0] = complex(math.Inf(1), math.Inf(-1))
	return [][]complex128{noise, sprinkled, allSpecial, impulse}
}

// kernelOnAndOff runs test twice: as the subtest "kernel" with the AVX
// kernel on (skipped where the CPU or GOARCH lacks it), and as "go" with
// it forced off, so the Go loops stay checked on every host.
func kernelOnAndOff(t *testing.T, test func(t *testing.T)) {
	avx := useAVX
	t.Cleanup(func() { useAVX = avx })
	t.Run("kernel", func(t *testing.T) {
		if !avx {
			t.Skip("no AVX kernel on this CPU or GOARCH")
		}
		useAVX = true
		test(t)
	})
	t.Run("go", func(t *testing.T) {
		useAVX = false
		test(t)
	})
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: bin %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestFFTMatchesOracleBitForBit pins the kernel's contract: the cached
// bit-reversal swaps, the twiddle-outer loop order and IFFT's reciprocal
// scaling change no output bit against the textbook kernel, forward or
// inverse, random or special-valued input, for every power of two up to
// 4096.
func TestFFTMatchesOracleBitForBit(t *testing.T) {
	kernelOnAndOff(t, fftMatchesOracleBitForBit)
}

func fftMatchesOracleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 4096; n <<= 1 {
		for v, in := range oracleInputs(rng, n) {
			got := append([]complex128(nil), in...)
			want := append([]complex128(nil), in...)
			if err := FFT(got); err != nil {
				t.Fatal(err)
			}
			oracleFFT(want, false)
			requireSameBits(t, fmt.Sprintf("FFT n=%d input %d", n, v), got, want)

			got = append(got[:0], in...)
			want = append(want[:0], in...)
			if err := IFFT(got); err != nil {
				t.Fatal(err)
			}
			oracleIFFT(want)
			requireSameBits(t, fmt.Sprintf("IFFT n=%d input %d", n, v), got, want)
		}
	}
}

// TestIFFTScalingMatchesComplexDivision checks the reciprocal scaling
// against x / n on every pair of special values, the both-infinite inputs
// the runtime rewrites included, with no butterfly in between (n = 1 is
// the identity transform, so IFFT is the scaling alone).
func TestIFFTScalingMatchesComplexDivision(t *testing.T) {
	kernelOnAndOff(t, ifftScalingMatchesComplexDivision)
}

func ifftScalingMatchesComplexDivision(t *testing.T) {
	for _, re := range specials {
		for _, im := range specials {
			in := complex(re, im)
			got := []complex128{in}
			if err := IFFT(got); err != nil {
				t.Fatal(err)
			}
			want := []complex128{in}
			oracleIFFT(want)
			requireSameBits(t, fmt.Sprintf("IFFT(%v)", in), got, want)
		}
	}
}

// edgeValues are finite values that pass both fast-path gates: signed
// zeros, subnormals, and magnitudes just under the real path's bound.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.Nextafter(realFastBound, 0), -math.Nextafter(realFastBound, 0),
}

// realOracle is the textbook transform of x zero-padded to n.
func realOracle(x []float64, n int) []complex128 {
	want := make([]complex128, n)
	for i, v := range x {
		want[i] = complex(v, 0)
	}
	oracleFFT(want, false)
	return want
}

// everyGroup returns every real vector of length l over pool. At l = 4
// (and l = 3, padded to 4) the transform is the first stage pair alone,
// so a signed zero it gets wrong reaches an output bin instead of being
// masked by a later stage's +0, and a NaN it skips is not hidden among
// the NaNs of later overflows.
func everyGroup(l int, pool []float64) [][]float64 {
	vecs := [][]float64{nil}
	for ; l > 0; l-- {
		var next [][]float64
		for _, v := range vecs {
			for _, p := range pool {
				next = append(next, append(v[:len(v):len(v)], p))
			}
		}
		vecs = next
	}
	return vecs
}

// TestFFTFastPathMatchesOracle checks the gated fast paths against the
// textbook kernel bit for bit on the finite edge values they accept, and
// the real path on lengths n, n-1 and n/2+1 (the padded case). The
// accepted inputs include magnitudes whose sums overflow to ±Inf (and
// Inf - Inf to the default NaN) in later stages. Real inputs at or beyond
// the real path's bound, infinities and NaNs included, must take the
// fallback and match too.
func TestFFTFastPathMatchesOracle(t *testing.T) {
	kernelOnAndOff(t, fftFastPathMatchesOracle)
}

func fftFastPathMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edge := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64()
		}
		return edgeValues[rng.Intn(len(edgeValues))]
	}
	// scaled returns ±limit·u for u in [1/2, 1): just under the real
	// bound, or far beyond it where first-stage sums overflow.
	scaled := func(limit float64) func() float64 {
		return func() float64 { return math.Copysign(limit*(0.5+rng.Float64()/2), rng.NormFloat64()) }
	}
	huge, over := scaled(realFastBound), scaled(math.MaxFloat64)
	beyond := []float64{realFastBound, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001)}
	// Every 4-point group over the signed zeros, ± the smallest subnormal
	// (whose differences underflow to a signed zero when multiplied by
	// cos(-π/2)) and ± the largest magnitude the real path accepts.
	zeros := []float64{0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(realFastBound, 0), -math.Nextafter(realFastBound, 0)}
	// Every 4-point group over 1 and values the real path refuses, each
	// refused value in each position.
	refused := []float64{1, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.NaN()}
	var nanParts, infParts int
	count := func(spec []complex128) {
		for _, c := range spec {
			for _, v := range []float64{real(c), imag(c)} {
				if math.IsNaN(v) {
					nanParts++
				} else if math.IsInf(v, 0) {
					infParts++
				}
			}
		}
	}

	for n := 4; n <= 4096; n <<= 1 {
		edgeC := make([]complex128, n)
		hugeC := make([]complex128, n)
		overC := make([]complex128, n)
		for i := range edgeC {
			edgeC[i] = complex(edge(), edge())
			hugeC[i] = complex(huge(), huge())
			overC[i] = complex(over(), over())
		}
		for v, in := range [][]complex128{edgeC, hugeC, overC} {
			if !finite(in) {
				t.Fatalf("n=%d complex input %d misses the fast path", n, v)
			}
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), in...)
				want := append([]complex128(nil), in...)
				if inverse {
					if err := IFFT(got); err != nil {
						t.Fatal(err)
					}
					oracleIFFT(want)
				} else {
					if err := FFT(got); err != nil {
						t.Fatal(err)
					}
					oracleFFT(want, false)
				}
				count(got)
				requireSameBits(t, fmt.Sprintf("n=%d complex input %d inverse=%v", n, v, inverse), got, want)
			}
		}

		for _, l := range []int{n, n - 1, n/2 + 1} {
			edgeR := make([]float64, l)
			hugeR := make([]float64, l)
			overR := make([]float64, l)
			special := make([]float64, l)
			for i := range edgeR {
				edgeR[i] = edge()
				hugeR[i] = huge()
				overR[i] = over()
				special[i] = rng.NormFloat64()
			}
			special[rng.Intn(l)] = beyond[rng.Intn(len(beyond))]
			inputs := [][]float64{edgeR, hugeR, overR, special}
			if n == 4 {
				inputs = append(inputs, everyGroup(l, zeros)...)
				inputs = append(inputs, everyGroup(l, refused)...)
			}
			for v, x := range inputs {
				what := fmt.Sprintf("n=%d len=%d real input %d", n, l, v)
				if l <= 4 {
					what += fmt.Sprint(" ", x)
				}
				inBound := !slices.ContainsFunc(x, func(v float64) bool { return !(math.Abs(v) < realFastBound) })
				if realFastOK(x) != inBound {
					t.Fatalf("%s: fast path = %v", what, !inBound)
				}
				got, err := FFTRealInto(nil, x)
				if err != nil {
					t.Fatal(err)
				}
				if inBound {
					count(got)
				}
				requireSameBits(t, what, got, realOracle(x, n))
			}
		}
	}
	if nanParts == 0 || infParts == 0 {
		t.Fatalf("the fast paths reached no overflow: %d NaN and %d Inf parts", nanParts, infParts)
	}
}

// oracleFilter is the composition fftFilterInto fuses, built from the
// textbook kernels FFTRealInto and IFFT match bit for bit: the transform
// of x zero-padded to the next power of two n, the mask zeroing each bin
// k <= n/2 whose frequency keep rejects and its mirror n-k, the inverse
// with the runtime's complex division, and the real parts of the first
// len(x) points. finite reports the gathered inverse's gate on the masked
// spectrum, and rewrites counts the points whose value the division's
// both-NaN rewrite supplies: the reduced real part (re + im*0) / n is NaN
// there, the rewritten one is not.
func oracleFilter(x []float64, sampleRate float64, keep func(f float64) bool) (out []float64, finite bool, rewrites int) {
	n := NextPowerOfTwo(len(x))
	spec := realOracle(x, n)
	for k := 0; k <= n/2; k++ {
		if !keep(BinFrequency(k, n, sampleRate)) {
			spec[k] = 0
			if k != 0 && k != n/2 {
				spec[n-k] = 0
			}
		}
	}
	finite = !slices.ContainsFunc(spec, func(c complex128) bool {
		return math.IsNaN(real(c)-real(c)) || math.IsNaN(imag(c)-imag(c))
	})
	oracleFFT(spec, true)
	out = make([]float64, len(x))
	for i := range out {
		c := spec[i]
		out[i] = real(c / complex(float64(n), 0))
		if math.IsNaN((real(c)+imag(c)*0)/float64(n)) && !math.IsNaN(out[i]) {
			rewrites++
		}
	}
	return out, finite, rewrites
}

func requireSameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: point %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestFFTFilterMatchesOracleBitForBit checks the fused filter pass (real
// transform, mask, gathered inverse, real-only scaling) against the
// composition it replaced, FFTRealInto → mask → IFFT → real, by
// math.Float64bits. Lengths are every power of two up to 4096 through
// fftFilterInto and the non-powers n-1 and n/2+1 through LowPassFFT,
// HighPassFFT and BandPassFFT; masks are low- and high-pass, keep-all and
// drop-all. Beside Gaussian noise and the finite edge values, the inputs
// hold magnitudes near MaxFloat64, both ones the real gate refuses and a
// half-scale alternation whose spectrum is finite, so the gathered
// inverse meets ±Inf and Inf - Inf and the both-NaN rewrite supplies
// outputs on both inverse paths (the test asserts each happened); and
// noise with one value the real gate refuses.
func TestFFTFilterMatchesOracleBitForBit(t *testing.T) {
	kernelOnAndOff(t, fftFilterMatchesOracleBitForBit)
}

func fftFilterMatchesOracleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const rate = 4000.0
	keeps := []struct {
		name string
		keep func(f float64) bool
	}{
		{"low", func(f float64) bool { return f <= 750 }},
		{"high", func(f float64) bool { return f >= 750 }},
		{"all", func(float64) bool { return true }},
		{"none", func(float64) bool { return false }},
	}
	filters := []struct {
		name string
		run  func(x []float64) ([]float64, error)
		keep func(f float64) bool
	}{
		{"LowPassFFT", func(x []float64) ([]float64, error) { return LowPassFFT(x, 600, rate) }, func(f float64) bool { return f <= 600 }},
		{"HighPassFFT", func(x []float64) ([]float64, error) { return HighPassFFT(x, 600, rate) }, func(f float64) bool { return f >= 600 }},
		{"BandPassFFT", func(x []float64) ([]float64, error) { return BandPassFFT(x, 300, 1200, rate) }, func(f float64) bool { return f >= 300 && f <= 1200 }},
		{"LowPassFFT/none", func(x []float64) ([]float64, error) { return LowPassFFT(x, -1, rate) }, func(f float64) bool { return f <= -1 }},
		{"LowPassFFT/all", func(x []float64) ([]float64, error) { return LowPassFFT(x, rate, rate) }, func(f float64) bool { return f <= rate }},
	}
	refused := []float64{realFastBound, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001)}
	inputs := func(l int) [][]float64 {
		noise := make([]float64, l)
		edge := make([]float64, l)
		huge := make([]float64, l)
		half := make([]float64, l)
		bad := make([]float64, l)
		for i := range noise {
			noise[i] = rng.NormFloat64()
			edge[i] = edgeValues[rng.Intn(len(edgeValues))]
			huge[i] = math.Copysign(math.MaxFloat64*(0.5+rng.Float64()/2), rng.NormFloat64())
			half[i] = math.MaxFloat64 / float64(l) * (1 + float64(i%2)) * (0.5 + rng.Float64()/2)
			bad[i] = rng.NormFloat64()
		}
		bad[rng.Intn(l)] = refused[rng.Intn(len(refused))]
		return [][]float64{noise, edge, huge, half, bad}
	}
	var gatheredOverflow, rewrites, gatheredRewrites int
	check := func(what string, got []float64, x []float64, keep func(f float64) bool) {
		t.Helper()
		want, finite, rw := oracleFilter(x, rate, keep)
		requireSameFloatBits(t, what, got, want)
		rewrites += rw
		if finite {
			gatheredRewrites += rw
		}
		if finite && slices.ContainsFunc(want, func(v float64) bool { return math.IsNaN(v - v) }) {
			gatheredOverflow++
		}
	}
	var dst []float64
	var spec []complex128
	for n := 1; n <= 4096; n <<= 1 {
		for v, x := range inputs(n) {
			for _, k := range keeps {
				var err error
				dst, spec, err = fftFilterInto(dst, spec, x, binMask(n, rate, k.keep))
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("n=%d input %d mask %s", n, v, k.name), dst, x, k.keep)
			}
		}
		for _, l := range []int{n - 1, n/2 + 1} {
			if l < 3 || l == n {
				continue
			}
			for v, x := range inputs(l) {
				for _, f := range filters {
					got, err := f.run(x)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s len=%d input %d", f.name, l, v), got, x, f.keep)
				}
			}
		}
	}
	if gatheredOverflow == 0 || gatheredRewrites == 0 || rewrites == gatheredRewrites {
		t.Fatalf("the filter missed an overflow case: %d gathered inverses overflowed, %d points rewritten (%d of them gathered)",
			gatheredOverflow, rewrites, gatheredRewrites)
	}
}
