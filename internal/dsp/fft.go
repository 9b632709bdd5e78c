package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if n is
// not positive or the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic("dsp: NextPowerOfTwo overflow")
	}
	return p
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two. The transform is
// unnormalized: IFFT(FFT(x)) == x.
func FFT(x []complex128) error {
	return fftInternal(x, false)
}

// IFFT computes the in-place inverse FFT of x, including the 1/N
// normalization. len(x) must be a power of two.
func IFFT(x []complex128) error {
	if err := fftInternal(x, true); err != nil {
		return err
	}
	// x[i] /= n goes through runtime.complex128div (Smith's algorithm).
	// With a real power-of-two divisor its two quotients reduce to the
	// expressions below, and scaling by the exact reciprocal 1/n rounds as
	// dividing by n does, signed zeros included. Only a both-NaN
	// quotient can differ (the runtime rewrites an infinite numerator's
	// to infinities), so that case falls back to the runtime division.
	n := complex(float64(len(x)), 0)
	inv := 1 / real(n)
	for i, c := range x {
		re, im := real(c), imag(c)
		q := complex((re+im*0)*inv, (im-re*0)*inv)
		if math.IsNaN(real(q)) && math.IsNaN(imag(q)) {
			q = c / n
		}
		x[i] = q
	}
	return nil
}

// twiddleCache memoizes the forward twiddle factors per transform size.
// Tables are immutable once published, so the lock-free sync.Map keeps
// concurrent machines (one per simulation cell in the parallel evaluation
// harness) race-free without per-transform recomputation or allocation.
var twiddleCache sync.Map // int -> []complex128, length n/2

// bitrevCache memoizes the bit-reversal permutation per transform size
// as the (i, j) index pairs with i < j that the permutation swaps.
// Entries are immutable once published, like twiddleCache's.
var bitrevCache sync.Map // int -> [][2]int

// bitrevSwaps returns the swap pairs of the length-n bit-reversal
// permutation.
func bitrevSwaps(n int) [][2]int {
	if v, ok := bitrevCache.Load(n); ok {
		return v.([][2]int)
	}
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	var swaps [][2]int
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> shift); j > i {
			swaps = append(swaps, [2]int{i, j})
		}
	}
	v, _ := bitrevCache.LoadOrStore(n, swaps)
	return v.([][2]int)
}

// twiddles returns e^(-2πik/n) for k in [0, n/2).
func twiddles(n int) []complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	v, _ := twiddleCache.LoadOrStore(n, tw)
	return v.([]complex128)
}

func fftInternal(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPowerOfTwo(n) {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}

	for _, p := range bitrevSwaps(n) {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}

	// Table lookups replace the incremental w *= wStep recurrence: no
	// per-stage trigonometry and no error accumulation across a stage.
	// The butterflies of one stage touch disjoint pairs, so running them
	// twiddle by twiddle (k outer, block start inner) loads and conjugates
	// each twiddle once per stage and leaves every output bit unchanged.
	tw := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for k := 0; k < half; k++ {
			w := tw[k*stride]
			if inverse {
				w = complex(real(w), -imag(w))
			}
			for i := k; i < n; i += size {
				even := x[i]
				odd := x[i+half] * w
				x[i] = even + odd
				x[i+half] = even - odd
			}
		}
	}
	return nil
}

// FFTReal transforms a real-valued signal into its complex spectrum. The
// input is zero-padded to the next power of two. The returned slice has the
// padded length and is freshly allocated; per-sample hot paths should use
// FFTRealInto with a reused buffer instead.
func FFTReal(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, nil
	}
	return FFTRealInto(nil, x)
}

// FFTRealInto is FFTReal writing into dst, growing it only when its
// capacity is too small. It returns the spectrum slice (dst, possibly
// reallocated) so streaming callers can carry one scratch buffer across
// transforms and stay allocation-free in steady state. An empty input
// yields an empty spectrum.
func FFTRealInto(dst []complex128, x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return dst[:0], nil
	}
	n := NextPowerOfTwo(len(x))
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	for i, v := range x {
		dst[i] = complex(v, 0)
	}
	for i := len(x); i < n; i++ {
		dst[i] = 0
	}
	if err := FFT(dst); err != nil {
		return dst, err
	}
	return dst, nil
}

// Magnitudes returns |X[k]| for each spectral bin.
func Magnitudes(spec []complex128) []float64 {
	return MagnitudesInto(nil, spec)
}

// MagnitudesInto writes |X[k]| for each spectral bin into dst, growing it
// only when its capacity is too small, and returns the (possibly
// reallocated) slice.
func MagnitudesInto(dst []float64, spec []complex128) []float64 {
	if cap(dst) < len(spec) {
		dst = make([]float64, len(spec))
	}
	dst = dst[:len(spec)]
	for i, c := range spec {
		dst[i] = math.Hypot(real(c), imag(c))
	}
	return dst
}

// BinFrequency returns the center frequency in Hz of spectral bin k for a
// transform of length n over a signal sampled at sampleRate Hz.
func BinFrequency(k, n int, sampleRate float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) * sampleRate / float64(n)
}

// DominantFrequency returns the frequency (Hz) and magnitude of the largest
// spectral bin of the real signal x, ignoring the DC bin. Only the first
// half of the spectrum is searched (the signal is real, so the spectrum is
// conjugate-symmetric).
func DominantFrequency(x []float64, sampleRate float64) (freq, magnitude float64, err error) {
	if len(x) < 2 {
		return 0, 0, nil
	}
	spec, err := FFTReal(x)
	if err != nil {
		return 0, 0, err
	}
	mags := Magnitudes(spec)
	best := 1
	for k := 2; k <= len(mags)/2; k++ {
		if mags[k] > mags[best] {
			best = k
		}
	}
	return BinFrequency(best, len(spec), sampleRate), mags[best], nil
}

// LowPassFFT applies a brick-wall low-pass filter at cutoff Hz to the real
// signal x by zeroing spectral bins above the cutoff and inverse
// transforming. The result has len(x) samples.
func LowPassFFT(x []float64, cutoff, sampleRate float64) ([]float64, error) {
	return fftFilter(x, sampleRate, func(f float64) bool { return f <= cutoff })
}

// HighPassFFT applies a brick-wall high-pass filter at cutoff Hz to the
// real signal x. The result has len(x) samples.
func HighPassFFT(x []float64, cutoff, sampleRate float64) ([]float64, error) {
	return fftFilter(x, sampleRate, func(f float64) bool { return f >= cutoff })
}

// BandPassFFT keeps only spectral content between low and high Hz.
func BandPassFFT(x []float64, low, high, sampleRate float64) ([]float64, error) {
	return fftFilter(x, sampleRate, func(f float64) bool { return f >= low && f <= high })
}

// fftFilter zeroes every bin whose center frequency fails keep, preserving
// conjugate symmetry so the output stays real.
func fftFilter(x []float64, sampleRate float64, keep func(freq float64) bool) ([]float64, error) {
	if len(x) == 0 {
		return nil, nil
	}
	out, _, err := fftFilterInto(nil, nil, x, sampleRate, keep)
	return out, err
}

// fftFilterInto is fftFilter with caller-owned scratch: dst receives the
// filtered block and spec is the spectrum workspace, both grown only when
// too small. It returns the (possibly reallocated) slices so streaming
// callers such as BlockFilter amortize their buffers across blocks.
func fftFilterInto(dst []float64, spec []complex128, x []float64, sampleRate float64, keep func(freq float64) bool) ([]float64, []complex128, error) {
	if len(x) == 0 {
		return dst[:0], spec, nil
	}
	spec, err := FFTRealInto(spec, x)
	if err != nil {
		return dst, spec, err
	}
	n := len(spec)
	for k := 0; k <= n/2; k++ {
		if !keep(BinFrequency(k, n, sampleRate)) {
			spec[k] = 0
			if k != 0 && k != n/2 {
				spec[n-k] = 0
			}
		}
	}
	if err := IFFT(spec); err != nil {
		return dst, spec, err
	}
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := range dst {
		dst[i] = real(spec[i])
	}
	return dst, spec, nil
}
