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

// stageCache memoizes the fused-stage plan per transform size. Plans are
// immutable once published, like twiddleCache's tables.
var stageCache sync.Map // int -> *fftStages

// fftStages is the plan the fast path runs for one size n >= 4: the
// butterflies two radix-2 stages at a time, sizes m and 2m for m = 2, 8,
// 32, ..., then the size-n stage alone when log2 n is odd.
type fftStages struct {
	// fwd and inv are the forward tables and their conjugates
	// (conjugation is exact).
	fwd, inv stageTables
	// rev maps a 4-point group g of the bit-reversed order to the input
	// position of its first point: group g reads x[rev[g]], x[rev[g]+n/2],
	// x[rev[g]+n/4] and x[rev[g]+3n/4].
	rev []int
}

// stageTables holds one direction's twiddles of a fused-stage plan.
type stageTables struct {
	// pairs holds, per fused pair and butterfly index k < h = m/2, the
	// stage-m twiddle of k and the stage-2m twiddles of k and k+h; the
	// pair of half h starts at index (h-1)/3.
	pairs [][3]complex128
	// vec holds the pairs of half h >= 4 in the AVX kernel's layout: per
	// butterfly pair (k, k+1) and each of the three twiddles w, w' of k
	// and k+1, the four real parts (re w, re w, re w', re w') and then
	// the four signed imaginary parts (-im w, im w, -im w', im w'), 24
	// float64s in all. The k of pairs index j >= 1 starts at 12(j-1).
	vec []float64
	// first is pairs[0] in vec's layout with w' = w: the gathered first
	// pair's kernel runs two groups of the same twiddles per register.
	first []float64
	// last is the lone size-n stage's twiddles (nil when log2 n is even).
	last []complex128
}

// stages returns the fused-stage plan of size n (a power of two >= 4).
func stages(n int) *fftStages {
	if v, ok := stageCache.Load(n); ok {
		return v.(*fftStages)
	}
	tw := twiddles(n)
	conj := func(w complex128) complex128 { return complex(real(w), -imag(w)) }
	st := &fftStages{}
	for m := 2; 2*m <= n; m *= 4 {
		h := m / 2
		for k := 0; k < h; k++ {
			w := [3]complex128{tw[k*(n/m)], tw[k*(n/(2*m))], tw[(k+h)*(n/(2*m))]}
			st.fwd.pairs = append(st.fwd.pairs, w)
			st.inv.pairs = append(st.inv.pairs, [3]complex128{conj(w[0]), conj(w[1]), conj(w[2])})
		}
	}
	for _, t := range []*stageTables{&st.fwd, &st.inv} {
		t.vec = kernelTwiddles(t.pairs)
		t.first = appendKernelTwiddles(nil, &t.pairs[0], &t.pairs[0])
	}
	if bits.Len(uint(n))%2 == 0 { // log2 n odd
		st.fwd.last = tw
		st.inv.last = make([]complex128, len(tw))
		for k, w := range tw {
			st.inv.last[k] = conj(w)
		}
	}
	q := n / 4
	shift := bits.UintSize - uint(bits.Len(uint(q-1)))
	st.rev = make([]int, q)
	for g := range st.rev {
		st.rev[g] = int(bits.Reverse(uint(g)) >> shift)
	}
	v, _ := stageCache.LoadOrStore(n, st)
	return v.(*fftStages)
}

// kernelTwiddles lays out pairs[1:], the entries of every pair of half
// h >= 4 (h is even, so the k pairs tile each pair), in stageTables.vec's
// layout. Negation is exact, so
// each lane's product x*(re, re) + swap(x)*(-im, im) is Go's complex
// product, part by part.
func kernelTwiddles(pairs [][3]complex128) []float64 {
	vec := make([]float64, 0, 12*max(len(pairs)-1, 0))
	for j := 1; j+1 < len(pairs); j += 2 {
		vec = appendKernelTwiddles(vec, &pairs[j], &pairs[j+1])
	}
	return vec
}

// appendKernelTwiddles appends the 24 float64s of one butterfly pair
// (k, k+1), whose twiddles are w0 and w1, in stageTables.vec's layout.
func appendKernelTwiddles(vec []float64, w0, w1 *[3]complex128) []float64 {
	for t := range 3 {
		a, b := w0[t], w1[t]
		vec = append(vec, real(a), real(a), real(b), real(b),
			-imag(a), imag(a), -imag(b), imag(b))
	}
	return vec
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

	// The fast path runs the loop below's butterflies on the same operands,
	// two stages per pass. Only the compiler's operand order can differ,
	// and that moves no bit unless an input NaN's payload is in play, so
	// it takes finite input only (DESIGN §5 item 6).
	if n >= 4 && finite(x) {
		st := stages(n)
		t := &st.fwd
		if inverse {
			t = &st.inv
		}
		firstPair(x, &t.pairs[0])
		fusedStages(x, t)
		return nil
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

// finite reports whether every part of x is finite: v - v is +0 for a
// finite v and NaN for an infinity or a NaN, and a NaN survives the sums.
func finite(x []complex128) bool {
	if useAVX {
		return finiteAVX(x)
	}
	var re, im float64
	for _, c := range x {
		re += real(c) - real(c)
		im += imag(c) - imag(c)
	}
	return re+im == 0
}

// butterfly4 runs one 4-point group through a fused stage pair: the
// first stage's butterflies (a, b) and (c, d) with twiddle wa, then the
// second's (a, c) with wb and (b, d) with wc. It returns the group in
// place order.
func butterfly4(a, b, c, d, wa, wb, wc complex128) (complex128, complex128, complex128, complex128) {
	ob := b * wa
	a, b = a+ob, a-ob
	od := d * wa
	c, d = c+od, c-od
	oc := c * wb
	od = d * wc
	return a + oc, b + od, a - oc, b - od
}

// firstPair runs the size-2 and size-4 stages over the 4-point groups of
// the bit-reversed x, with the pair's three twiddles hoisted.
func firstPair(x []complex128, w *[3]complex128) {
	wa, wb, wc := w[0], w[1], w[2]
	for i := 0; i+4 <= len(x); i += 4 {
		g := x[i : i+4 : i+4]
		g[0], g[1], g[2], g[3] = butterfly4(g[0], g[1], g[2], g[3], wa, wb, wc)
	}
}

// gatherFirstPair is firstPair over the bit-reversed order of src written
// into dst, with no permutation pass: group g of dst is butterfly4 of
// src[r], src[r+n/2], src[r+n/4] and src[r+3n/4] for r = rev[g]. The loop
// runs in source order r, so each quarter of src is read contiguously,
// and stores group r at rev[r]: the n/4-point bit reversal is its own
// inverse. With useAVX set and n >= 8, gatherPairAVX runs the same
// butterflies two groups at a time (DESIGN §5 item 6); the Go loop is the
// fallback and its reference.
func gatherFirstPair(dst, src []complex128, rev []int, t *stageTables) {
	n := len(src)
	if useAVX && n >= 8 {
		gatherPairAVX(dst, src, rev, t.first)
		return
	}
	w := &t.pairs[0]
	wa, wb, wc := w[0], w[1], w[2]
	q0 := src[:len(rev)]
	q1, q2, q3 := src[n/4:n/2], src[n/2:3*n/4], src[3*n/4:n]
	q1, q2, q3 = q1[:len(q0)], q2[:len(q0)], q3[:len(q0)]
	for r, g := range rev {
		o := dst[4*g : 4*g+4 : 4*g+4]
		o[0], o[1], o[2], o[3] = butterfly4(q0[r], q2[r], q1[r], q3[r], wa, wb, wc)
	}
}

// fusedStages runs every stage after the first pair: the pairs of sizes
// m and 2m for m = 8, 32, ... (half h = m/2 = 4, 16, ...), each as h
// 4-point groups per block of 2m, then the lone size-n stage when t.last
// is non-nil. With useAVX set, fusedPairAVX runs each block's groups from
// t.vec, the same operations as the Go loop's butterfly4 two groups at a
// time (DESIGN §5 item 6); the Go loop is the fallback and its reference.
func fusedStages(x []complex128, t *stageTables) {
	n := len(x)
	for h := 4; 4*h <= n; h *= 4 {
		j := (h - 1) / 3
		if useAVX {
			wv := t.vec[12*(j-1) : 12*(j-1+h)]
			for s := 0; s < n; s += 4 * h {
				fusedPairAVX(x[s:s+4*h], wv)
			}
			continue
		}
		ws := t.pairs[j : j+h]
		for s := 0; s < n; s += 4 * h {
			q0 := x[s : s+h]
			q1 := x[s+h : s+2*h]
			q2 := x[s+2*h : s+3*h]
			q3 := x[s+3*h : s+4*h]
			// Equal lengths let the compiler drop the loop's bounds checks.
			q1, q2, q3, ws := q1[:len(q0)], q2[:len(q0)], q3[:len(q0)], ws[:len(q0)]
			for k := range ws {
				w := &ws[k]
				q0[k], q1[k], q2[k], q3[k] = butterfly4(q0[k], q1[k], q2[k], q3[k], w[0], w[1], w[2])
			}
		}
	}
	if last := t.last; last != nil {
		lo, hi := x[:n/2], x[n/2:]
		hi, last = hi[:len(lo)], last[:len(lo)]
		for k, w := range last {
			even := lo[k]
			odd := hi[k] * w
			lo[k] = even + odd
			hi[k] = even - odd
		}
	}
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
	if n >= 4 && realFastOK(x) {
		st := stages(n)
		realFirstPair(dst, x, st.rev, &st.fwd.pairs[0])
		fusedStages(dst, &st.fwd)
		return dst, nil
	}
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

// realFastBound bounds the real fast path's input magnitudes: every sum
// of its first stage pair, at most 4·2^1020 = 2^1022, stays finite, so no
// twiddle's -0 part meets an infinity and every imaginary part it skips
// is +0.
const realFastBound = 0x1p1020

// realFastOK reports whether every |x[i]| < realFastBound: v*16 overflows
// exactly when |v| >= 2^1020, and as in finite, v - v is +0 for a finite
// v and NaN otherwise.
func realFastOK(x []float64) bool {
	const scale = 0x1p1024 / realFastBound
	if useAVX {
		return realFastOKAVX(x, scale)
	}
	var z float64
	for _, v := range x {
		v *= scale
		z += v - v
	}
	return z == 0
}

// realFirstPair writes the size-2 and size-4 stages of the transform of
// x, zero-padded to len(dst), into dst. It reads each bit-reversed
// 4-point group (a, b, c, d) straight from x, a padded position reading
// +0, and computes firstPair in real arithmetic (realGroup). With useAVX
// set, an unpadded x (len(x) == n) of n >= 16 points runs realPairAVX
// four groups at a time (DESIGN §5 item 6); the Go loop is the fallback
// and its reference.
func realFirstPair(dst []complex128, x []float64, rev []int, w *[3]complex128) {
	n := len(dst)
	wr, wi := real(w[2]), imag(w[2])
	if useAVX && n >= 16 && len(x) == n {
		realPairAVX(dst, x, rev, wr, wi)
		return
	}
	q0, q1 := x[:n/4], x[n/4:n/2]
	q2, q3 := x[n/2:min(len(x), 3*n/4)], x[min(len(x), 3*n/4):]
	for g, r := range rev {
		var b, d float64
		if r < len(q2) {
			b = q2[r]
		}
		if r < len(q3) {
			d = q3[r]
		}
		o := dst[4*g : 4*g+4 : 4*g+4]
		o[0], o[1], o[2], o[3] = realGroup(q0[r], b, q1[r], d, wr, wi)
	}
}

// realGroup returns the first stage pair of the real 4-point group
// (a, b, c, d) in place order. Every imaginary part is +0, w0 = tw[0] = (1, -0),
// w2 = tw[n/4] = (wr, wi) = (cos(-π/2), -1) with cos(-π/2) ≈ 6.1e-17 > 0,
// and under realFastOK every value is finite, so each complex operation
// of butterfly4 reduces to the real ones below:
//   - b*w0 = (b*1 - 0*(-0), b*(-0) + 0*1) = (b + 0, +0), and so for d;
//   - d1*w2 = (d1*wr - 0*wi, d1*wi + 0*wr) = (d1*wr + 0, d1*wi + 0);
//   - s1*w0 = (s1 + 0, +0), and s0 = a + (b + 0) is never -0, so
//     s0 ± (s1 + 0) = s0 ± s1;
//   - d's + 0 moves s1 and d1 only between -0 and +0, which the size-4
//     stage maps alike, so it is dropped;
//   - the size-4 stage's +0 + ti is ti, as ti is never -0, and +0 - ti
//     stays 0 - ti.
//
// Each + 0 that remains turns a -0 into +0 where the complex operations
// do. The products are converted before the + 0, so no target contracts
// them into a fused multiply-add.
func realGroup(a, b, c, d, wr, wi float64) (complex128, complex128, complex128, complex128) {
	bp := b + 0
	s0, d0 := a+bp, a-bp
	s1, d1 := c+d, c-d
	tr, ti := float64(d1*wr)+0, float64(d1*wi)+0
	return complex(s0+s1, 0), complex(d0+tr, ti), complex(s0-s1, 0), complex(d0-tr, 0-ti)
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

// fftFilter zeroes every bin whose center frequency fails keep,
// preserving conjugate symmetry so the output stays real.
func fftFilter(x []float64, sampleRate float64, keep func(freq float64) bool) ([]float64, error) {
	if len(x) == 0 {
		return nil, nil
	}
	out, _, err := fftFilterInto(nil, nil, x, binMask(NextPowerOfTwo(len(x)), sampleRate, keep))
	return out, err
}

// binMask returns the spectrum index ranges [lo, hi) of a length-n
// transform that the mask zeroes: each bin k = 0..n/2 whose center
// frequency keep rejects, and its mirror n-k, so the output stays real.
func binMask(n int, sampleRate float64, keep func(freq float64) bool) [][2]int {
	// A low-, high- or band-pass mask zeroes at most three ranges.
	runs := make([][2]int, 0, 3)
	for i := 0; i < n; i++ {
		if keep(BinFrequency(min(i, n-i), n, sampleRate)) {
			continue
		}
		if l := len(runs) - 1; l >= 0 && runs[l][1] == i {
			runs[l][1]++
		} else {
			runs = append(runs, [2]int{i, i + 1})
		}
	}
	return runs
}

// fftFilterInto is fftFilter with caller-owned scratch and a precomputed
// mask: drop is binMask of the padded length n of x, dst receives the
// filtered block and spec is the spectrum workspace of 2n values, both
// grown only when too small. It returns the (possibly reallocated) slices
// so streaming callers such as BlockFilter amortize their buffers across
// blocks.
//
// The pass is forward real FFT, bin mask, inverse, real output, and every
// output bit equals real(IFFT(mask(FFTRealInto(x)))[i]). When the masked
// spectrum is finite, the inverse gathers its first stage pair from it
// into spec[n:2n] (gatherFirstPair) instead of permuting it in place, and
// runs the same fused stages; otherwise IFFT's own loop runs in place.
// Only the real half of IFFT's scaling is computed (DESIGN §5 item 6).
func fftFilterInto(dst []float64, spec []complex128, x []float64, drop [][2]int) ([]float64, []complex128, error) {
	if len(x) == 0 {
		return dst[:0], spec, nil
	}
	n := NextPowerOfTwo(len(x))
	if cap(spec) < 2*n {
		spec = make([]complex128, 2*n)
	}
	spec = spec[:2*n]
	fwd, err := FFTRealInto(spec[:n], x)
	if err != nil {
		return dst, spec, err
	}
	for _, r := range drop {
		clear(fwd[r[0]:r[1]])
	}
	out := fwd
	if n >= 4 && finite(fwd) {
		st := stages(n)
		out = spec[n:]
		gatherFirstPair(out, fwd, st.rev, &st.inv)
		fusedStages(out, &st.inv)
	} else if err := fftInternal(fwd, true); err != nil {
		return dst, spec, err
	}
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	// IFFT's real quotient (re + im*0) / n, with its both-NaN fallback.
	// The products are converted before the sums, so no target contracts
	// them into a fused multiply-add.
	inv := 1 / float64(n)
	for i, c := range out[:len(dst)] {
		re, im := real(c), imag(c)
		v := (re + float64(im*0)) * inv
		if math.IsNaN(v) && math.IsNaN((im-float64(re*0))*inv) {
			v = real(c / complex(float64(n), 0))
		}
		dst[i] = v
	}
	return dst, spec, nil
}
