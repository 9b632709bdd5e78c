package dsp

import (
	"fmt"
	"math"
)

// WindowShape selects the tapering function applied by a Windower.
type WindowShape int

const (
	// Rectangular applies no tapering.
	Rectangular WindowShape = iota
	// Hamming applies the Hamming taper 0.54 - 0.46*cos(2*pi*n/(N-1)).
	Hamming
)

// String returns the lower-case name of the shape.
func (s WindowShape) String() string {
	switch s {
	case Rectangular:
		return "rectangular"
	case Hamming:
		return "hamming"
	default:
		return fmt.Sprintf("WindowShape(%d)", int(s))
	}
}

// ParseWindowShape converts a name produced by String back into a shape.
func ParseWindowShape(name string) (WindowShape, error) {
	switch name {
	case "rectangular", "rect", "":
		return Rectangular, nil
	case "hamming":
		return Hamming, nil
	default:
		return Rectangular, fmt.Errorf("dsp: unknown window shape %q", name)
	}
}

// HammingCoefficients returns the n Hamming taper coefficients.
func HammingCoefficients(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := range out {
		out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return out
}

// Windower partitions a sample stream into fixed-size windows with optional
// overlap and tapering (paper §3.6 "Windowing"). The zero value is not
// usable; construct with NewWindower.
type Windower struct {
	size  int
	step  int
	shape WindowShape
	buf   []float64
	out   []float64
	taper []float64
}

// NewWindower returns a Windower emitting windows of size samples every
// step samples (step == size means non-overlapping). It returns an error
// for non-positive size, non-positive step, or step > size.
func NewWindower(size, step int, shape WindowShape) (*Windower, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dsp: window size must be positive, got %d", size)
	}
	if step <= 0 || step > size {
		return nil, fmt.Errorf("dsp: window step must be in [1, size], got %d", step)
	}
	w := &Windower{size: size, step: step, shape: shape, buf: make([]float64, 0, size)}
	if shape == Hamming {
		w.taper = HammingCoefficients(size)
	}
	return w, nil
}

// Size returns the window length in samples.
func (w *Windower) Size() int { return w.size }

// Push adds one sample. When a full window is available it returns the
// window with the taper applied and ok=true; otherwise ok=false. The
// returned slice is the Windower's internal buffer: it stays valid only
// until the next Push, Consume or Reset (an untapered window is the
// sample buffer itself, slid at the next call), so callers that retain
// windows must copy and must not write to them.
func (w *Windower) Push(v float64) (window []float64, ok bool) {
	w.slide()
	w.buf = append(w.buf, v)
	if len(w.buf) < w.size {
		return nil, false
	}
	return w.emit(), true
}

// Consume ingests a prefix of src: exactly enough samples to complete the
// next window, or all of src if the window stays unfilled. It returns the
// number of samples consumed and, on completion, the tapered window (same
// scratch-aliasing contract as Push). Repeated Consume calls over a slice
// are equivalent to a Push loop.
func (w *Windower) Consume(src []float64) (n int, window []float64, ok bool) {
	w.slide()
	n = w.size - len(w.buf)
	if n > len(src) {
		n = len(src)
	}
	w.buf = append(w.buf, src[:n]...)
	if len(w.buf) < w.size {
		return n, nil, false
	}
	return n, w.emit(), true
}

// emit returns the full buffer's window. An untapered window is the
// buffer itself, left full for the next call's slide, so a hop costs one
// window-sized copy; a tapered one is written into the output scratch and
// the buffer slides at once.
func (w *Windower) emit() []float64 {
	if w.taper == nil {
		return w.buf
	}
	if w.out == nil {
		w.out = make([]float64, w.size)
	}
	for i, c := range w.taper {
		w.out[i] = w.buf[i] * c
	}
	w.slide()
	return w.out
}

// slide drops the oldest step samples of a full buffer: only an emitted
// window fills it, so this runs once per hop.
func (w *Windower) slide() {
	if len(w.buf) == w.size {
		copy(w.buf, w.buf[w.step:])
		w.buf = w.buf[:w.size-w.step]
	}
}

// Reset discards any buffered samples.
func (w *Windower) Reset() { w.buf = w.buf[:0] }
