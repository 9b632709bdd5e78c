package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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
