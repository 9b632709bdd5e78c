package dsp

import (
	"fmt"
	"math"
)

// This file implements the cheap, streaming alternatives to the FFT-based
// algorithms: biquad IIR filters and the Goertzel single-band detector.
// They answer the paper's §3.8 question about which algorithms the
// platform should ship: an IIR filter does per-sample what the FFT filter
// does per block, at a handful of multiply-accumulates — cheap enough for
// an FPU-less microcontroller, where the FFT chain is not.

// Biquad is a direct-form-II-transposed second-order IIR section.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewLowPassBiquad returns a Butterworth-style low-pass biquad with the
// given cutoff (Hz) at the given sampling rate.
func NewLowPassBiquad(cutoff, sampleRate float64) (*Biquad, error) {
	if err := checkBiquadParams(cutoff, sampleRate); err != nil {
		return nil, err
	}
	w := 2 * math.Pi * cutoff / sampleRate
	cosw, sinw := math.Cos(w), math.Sin(w)
	const q = math.Sqrt2 / 2 // Butterworth Q
	alpha := sinw / (2 * q)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cosw) / 2 / a0,
		b1: (1 - cosw) / a0,
		b2: (1 - cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewHighPassBiquad returns a Butterworth-style high-pass biquad.
func NewHighPassBiquad(cutoff, sampleRate float64) (*Biquad, error) {
	if err := checkBiquadParams(cutoff, sampleRate); err != nil {
		return nil, err
	}
	w := 2 * math.Pi * cutoff / sampleRate
	cosw, sinw := math.Cos(w), math.Sin(w)
	const q = math.Sqrt2 / 2
	alpha := sinw / (2 * q)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cosw) / 2 / a0,
		b1: -(1 + cosw) / a0,
		b2: (1 + cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

func checkBiquadParams(cutoff, sampleRate float64) error {
	if sampleRate <= 0 {
		return fmt.Errorf("dsp: biquad sample rate must be positive, got %g", sampleRate)
	}
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return fmt.Errorf("dsp: biquad cutoff %g Hz outside (0, Nyquist=%g)", cutoff, sampleRate/2)
	}
	return nil
}

// Push filters one sample. ok is always true: IIR filters are
// sample-synchronous.
func (f *Biquad) Push(x float64) (y float64, ok bool) {
	y = f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y, true
}

// PushBlock filters src, appending outputs to dst[:0]; IIR filters are
// sample-synchronous so skip is always 0. The loop runs the exact Push
// recurrence with the state held in locals, so results are bit-identical.
func (f *Biquad) PushBlock(dst, src []float64) (out []float64, skip int) {
	out = dst[:0]
	z1, z2 := f.z1, f.z2
	for _, x := range src {
		y := f.b0*x + z1
		z1 = f.b1*x - f.a1*y + z2
		z2 = f.b2*x - f.a2*y
		out = append(out, y)
	}
	f.z1, f.z2 = z1, z2
	return out, 0
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// Goertzel detects energy at a single target frequency over fixed-size
// blocks using the Goertzel algorithm: per sample it costs one multiply
// and two adds, and per block one small wrap-up — hundreds of times
// cheaper than an FFT when only one band matters. It emits the ratio of
// target-band amplitude to the block's RMS, a normalized "how tonal at
// this frequency" score.
type Goertzel struct {
	goertzelState
	blockSize int

	energy float64
	n      int
}

// goertzelState is one detector's recurrence: its coefficient and the last
// two outputs of s0 = x + coeff*s1 - s2.
type goertzelState struct {
	coeff  float64
	s1, s2 float64
}

// amp returns the target bin's amplitude over a block of blockSize
// samples.
func (g *goertzelState) amp(blockSize int) float64 {
	power := g.s1*g.s1 + g.s2*g.s2 - g.coeff*g.s1*g.s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power) * 2 / float64(blockSize)
}

// NewGoertzel returns a detector for the target frequency (Hz) at the
// given sampling rate, evaluated every blockSize samples.
func NewGoertzel(freq, sampleRate float64, blockSize int) (*Goertzel, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: goertzel sample rate must be positive, got %g", sampleRate)
	}
	if freq <= 0 || freq >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: goertzel frequency %g Hz outside (0, Nyquist=%g)", freq, sampleRate/2)
	}
	if blockSize < 8 {
		return nil, fmt.Errorf("dsp: goertzel block size must be >= 8, got %d", blockSize)
	}
	w := 2 * math.Pi * freq / sampleRate
	return &Goertzel{goertzelState: goertzelState{coeff: 2 * math.Cos(w)}, blockSize: blockSize}, nil
}

// BlockSize returns the detector's block length.
func (g *Goertzel) BlockSize() int { return g.blockSize }

// Push processes one sample. At each block boundary it emits the
// normalized target-band score and resets for the next block. It is the
// reference GoertzelBank.Consume is tested against bit for bit.
func (g *Goertzel) Push(x float64) (score float64, ok bool) {
	s0 := x + g.coeff*g.s1 - g.s2
	g.s2 = g.s1
	g.s1 = s0
	g.energy += x * x
	g.n++
	if g.n < g.blockSize {
		return 0, false
	}
	amp := g.amp(g.blockSize)
	rms := math.Sqrt(g.energy / float64(g.blockSize))
	g.Reset()
	if rms == 0 {
		return 0, true
	}
	return amp / rms, true
}

// Reset clears all block state.
func (g *Goertzel) Reset() { g.s1, g.s2, g.energy, g.n = 0, 0, 0, 0 }

// GoertzelBank scans a frequency band with several Goertzel detectors and
// emits the best normalized score per block: a poor man's "is there a tone
// anywhere in [lo, hi]" feature cheap enough for the MSP430, unlike the
// FFT chain (paper §4: the MSP430 "was unable to run the FFT-based
// low-pass filter in real-time").
//
// Every detector sees the same samples at the same block phase, so the
// bank keeps the block position and the block's energy, the sum of x*x a
// detector would keep alone, once for all of them.
type GoertzelBank struct {
	dets      []goertzelState
	blockSize int
	n         int     // samples into the current block
	energy    float64 // sum of squares of those samples
}

// NewGoertzelBank places n detectors evenly across [lo, hi] Hz.
func NewGoertzelBank(lo, hi, sampleRate float64, blockSize, n int) (*GoertzelBank, error) {
	if n < 1 {
		return nil, fmt.Errorf("dsp: goertzel bank needs at least one detector, got %d", n)
	}
	if lo > hi {
		return nil, fmt.Errorf("dsp: goertzel bank lo %g > hi %g", lo, hi)
	}
	bank := &GoertzelBank{blockSize: blockSize}
	for i := 0; i < n; i++ {
		f := lo
		if n > 1 {
			f = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		det, err := NewGoertzel(f, sampleRate, blockSize)
		if err != nil {
			return nil, err
		}
		bank.dets = append(bank.dets, det.goertzelState)
	}
	return bank, nil
}

// Size returns the number of detectors in the bank.
func (b *GoertzelBank) Size() int { return len(b.dets) }

// Push processes one sample through every detector; at block boundaries
// it emits the best score across the bank.
func (b *GoertzelBank) Push(x float64) (best float64, ok bool) {
	one := [1]float64{x}
	_, best, ok = b.Consume(one[:])
	return best, ok
}

// Consume ingests a prefix of src: exactly enough samples to reach the
// next block boundary, or all of src if the boundary is out of reach. At a
// boundary it emits the best score across the bank. Every detector's
// state, the shared energy and every score are bit-identical to what a
// Goertzel.Push loop per detector computes: each value goes through the
// same operations in the same order.
func (b *GoertzelBank) Consume(src []float64) (n int, best float64, ok bool) {
	if len(b.dets) == 0 {
		return len(src), 0, false
	}
	n = min(b.blockSize-b.n, len(src))
	run := src[:n]
	energy := b.energy
	for _, x := range run {
		energy += x * x
	}
	b.energy = energy
	b.recur(run)
	b.n += n
	if b.n < b.blockSize {
		return n, 0, false
	}
	return n, b.finish(), true
}

// recur advances every detector's recurrence over run, four detectors per
// pass so their independent dependency chains overlap, then the rest one
// at a time.
func (b *GoertzelBank) recur(run []float64) {
	d := b.dets
	for ; len(d) >= 4; d = d[4:] {
		c0, c1, c2, c3 := d[0].coeff, d[1].coeff, d[2].coeff, d[3].coeff
		a1, a2 := d[0].s1, d[0].s2
		b1, b2 := d[1].s1, d[1].s2
		e1, e2 := d[2].s1, d[2].s2
		f1, f2 := d[3].s1, d[3].s2
		for _, x := range run {
			a0 := x + c0*a1 - a2
			b0 := x + c1*b1 - b2
			e0 := x + c2*e1 - e2
			f0 := x + c3*f1 - f2
			a2, a1 = a1, a0
			b2, b1 = b1, b0
			e2, e1 = e1, e0
			f2, f1 = f1, f0
		}
		d[0].s1, d[0].s2 = a1, a2
		d[1].s1, d[1].s2 = b1, b2
		d[2].s1, d[2].s2 = e1, e2
		d[3].s1, d[3].s2 = f1, f2
	}
	for i := range d {
		c, s1, s2 := d[i].coeff, d[i].s1, d[i].s2
		for _, x := range run {
			s0 := x + c*s1 - s2
			s2, s1 = s1, s0
		}
		d[i].s1, d[i].s2 = s1, s2
	}
}

// finish wraps up a full block: the best of every detector's target-bin
// amplitude over the block RMS (0 for a silent block), then the state
// reset for the next block.
func (b *GoertzelBank) finish() (best float64) {
	rms := math.Sqrt(b.energy / float64(b.blockSize))
	for i := range b.dets {
		d := &b.dets[i]
		if rms != 0 {
			if score := d.amp(b.blockSize) / rms; score > best {
				best = score
			}
		}
		d.s1, d.s2 = 0, 0
	}
	b.energy, b.n = 0, 0
	return best
}

// Reset clears every detector.
func (b *GoertzelBank) Reset() {
	for i := range b.dets {
		b.dets[i].s1, b.dets[i].s2 = 0, 0
	}
	b.energy, b.n = 0, 0
}
