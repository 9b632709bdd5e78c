package dsp

import "fmt"

// MovingAverager is a streaming simple moving average over the last N
// samples (paper §3.6 "Noise-reduction"). It produces no output until N
// samples have arrived, mirroring the hasResult semantics of the paper's
// runtime (§3.5).
type MovingAverager struct {
	window []float64
	next   int
	count  int
	sum    float64
}

// NewMovingAverager returns a moving average with the given window size.
func NewMovingAverager(size int) (*MovingAverager, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dsp: moving average window must be positive, got %d", size)
	}
	return &MovingAverager{window: make([]float64, size)}, nil
}

// Size returns the window size.
func (m *MovingAverager) Size() int { return len(m.window) }

// Push adds a sample. Once the window is full it returns the current
// average with ok=true on every subsequent sample.
func (m *MovingAverager) Push(v float64) (avg float64, ok bool) {
	if m.count == len(m.window) {
		m.sum -= m.window[m.next]
	} else {
		m.count++
	}
	m.window[m.next] = v
	m.sum += v
	m.next = (m.next + 1) % len(m.window)
	if m.count < len(m.window) {
		return 0, false
	}
	return m.sum / float64(m.count), true
}

// PushBlock runs src through the filter, appending one output per emission
// to dst[:0] and returning the outputs plus the count of leading samples
// that produced nothing (window priming). Emissions are dense once the
// window fills, so out aligns 1:1 with src[skip:]. The arithmetic is the
// exact per-sample recurrence of Push, so results are bit-identical.
func (m *MovingAverager) PushBlock(dst, src []float64) (out []float64, skip int) {
	out = dst[:0]
	for _, v := range src {
		if m.count == len(m.window) {
			m.sum -= m.window[m.next]
		} else {
			m.count++
		}
		m.window[m.next] = v
		m.sum += v
		m.next = (m.next + 1) % len(m.window)
		if m.count < len(m.window) {
			skip++
			continue
		}
		out = append(out, m.sum/float64(m.count))
	}
	return out, skip
}

// Reset clears all buffered samples.
func (m *MovingAverager) Reset() {
	m.next, m.count, m.sum = 0, 0, 0
	for i := range m.window {
		m.window[i] = 0
	}
}

// EMA is a streaming exponential moving average with smoothing factor
// alpha in (0, 1]: y_t = alpha*x_t + (1-alpha)*y_{t-1}. The first sample
// initializes the average and is produced immediately.
type EMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEMA returns an exponential moving average with the given alpha.
func NewEMA(alpha float64) (*EMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("dsp: EMA alpha must be in (0, 1], got %g", alpha)
	}
	return &EMA{alpha: alpha}, nil
}

// Push adds a sample and returns the updated average. ok is always true.
func (e *EMA) Push(v float64) (avg float64, ok bool) {
	if !e.primed {
		e.value = v
		e.primed = true
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	return e.value, true
}

// PushBlock runs src through the filter; the EMA emits on every sample so
// skip is always 0. Bit-identical to a Push loop.
func (e *EMA) PushBlock(dst, src []float64) (out []float64, skip int) {
	out = dst[:0]
	for _, v := range src {
		if !e.primed {
			e.value = v
			e.primed = true
		} else {
			e.value = e.alpha*v + (1-e.alpha)*e.value
		}
		out = append(out, e.value)
	}
	return out, 0
}

// Reset returns the EMA to its unprimed state.
func (e *EMA) Reset() { e.value, e.primed = 0, false }

// BlockFilterKind selects the spectral mask of a BlockFilter.
type BlockFilterKind int

const (
	// LowPass keeps content at or below the cutoff.
	LowPass BlockFilterKind = iota
	// HighPass keeps content at or above the cutoff.
	HighPass
)

// BlockFilter is a streaming low- or high-pass filter with block-framed
// emission. The default backend buffers blockSize samples, filters the
// block in the frequency domain, and emits the filtered block (paper §3.6
// "FFT-based low/high-pass filtering"); its block size must be a power of
// two so the FFT needs no padding. The IIR backend (NewIIRBlockFilterQ15)
// keeps the same block framing but realizes the mask with a streaming
// Butterworth biquad whose state carries across blocks — the form an
// FPU-less MCU can actually run in real time (paper §4).
type BlockFilter struct {
	buf       []float64
	blockSize int
	out       []float64
	spec      []complex128
	drop      [][2]int   // FFT backend: the spectrum ranges the mask zeroes
	bqQ       *BiquadQ15 // Q15 IIR backend (nil for FFT)
}

// NewBlockFilter returns an FFT-based block filter.
func NewBlockFilter(kind BlockFilterKind, cutoff, sampleRate float64, blockSize int) (*BlockFilter, error) {
	if !IsPowerOfTwo(blockSize) {
		return nil, fmt.Errorf("dsp: block filter size must be a power of two, got %d", blockSize)
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: block filter sample rate must be positive, got %g", sampleRate)
	}
	if cutoff < 0 || cutoff > sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside [0, Nyquist=%g]", cutoff, sampleRate/2)
	}
	keep := func(freq float64) bool { return freq <= cutoff }
	if kind == HighPass {
		keep = func(freq float64) bool { return freq >= cutoff }
	}
	return &BlockFilter{
		buf:       make([]float64, 0, blockSize),
		blockSize: blockSize,
		drop:      binMask(blockSize, sampleRate, keep),
	}, nil
}

// NewIIRBlockFilterQ15 returns a block filter realized by a streaming
// Butterworth biquad run in Q15 fixed point (quantized coefficients,
// saturating arithmetic): block framing identical to the FFT backend, but
// the filter state persists across block boundaries. blockSize only frames
// the emission so it need not be a power of two.
func NewIIRBlockFilterQ15(kind BlockFilterKind, cutoff, sampleRate float64, blockSize int) (*BlockFilter, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("dsp: block filter size must be positive, got %d", blockSize)
	}
	newBiquad := NewLowPassBiquad
	if kind == HighPass {
		newBiquad = NewHighPassBiquad
	}
	bq, err := newBiquad(cutoff, sampleRate)
	if err != nil {
		return nil, err
	}
	return &BlockFilter{
		buf:       make([]float64, 0, blockSize),
		blockSize: blockSize,
		bqQ:       bq.Q15(),
	}, nil
}

// BlockSize returns the filter's block length in samples.
func (f *BlockFilter) BlockSize() int { return f.blockSize }

// Push adds a sample. When a full block has accumulated it returns the
// filtered block with ok=true; the internal buffer is then empty. The
// returned block is the filter's internal scratch: it stays valid only
// until the next emission, so callers that retain blocks must copy.
func (f *BlockFilter) Push(v float64) (block []float64, ok bool) {
	f.buf = append(f.buf, v)
	if len(f.buf) < f.blockSize {
		return nil, false
	}
	return f.emit()
}

// Consume ingests a prefix of src: exactly enough samples to reach the
// next block boundary, or all of src if the boundary is out of reach. It
// returns the number of samples consumed and, at a boundary, the filtered
// block (same scratch-aliasing contract as Push). Feeding a slice through
// repeated Consume calls is equivalent to a Push loop, minus the
// per-sample call overhead.
func (f *BlockFilter) Consume(src []float64) (n int, block []float64, ok bool) {
	n = f.blockSize - len(f.buf)
	if n > len(src) {
		n = len(src)
	}
	f.buf = append(f.buf, src[:n]...)
	if len(f.buf) < f.blockSize {
		return n, nil, false
	}
	block, ok = f.emit()
	return n, block, ok
}

// emit filters the full buffer through the active backend.
func (f *BlockFilter) emit() (block []float64, ok bool) {
	switch {
	case f.bqQ != nil:
		if cap(f.out) < f.blockSize {
			f.out = make([]float64, 0, f.blockSize)
		}
		f.out, _ = f.bqQ.PushBlock(f.out[:0], f.buf)
		f.buf = f.buf[:0]
		return f.out, true
	default:
		out, spec, err := fftFilterInto(f.out, f.spec, f.buf, f.drop)
		f.out, f.spec = out, spec
		f.buf = f.buf[:0]
		if err != nil {
			// Unreachable for a power-of-two block, but fail closed.
			return nil, false
		}
		return out, true
	}
}

// Reset discards buffered samples and clears the IIR state carried across
// blocks. (The FFT backend has no cross-block state; the biquad backend
// does, and forgetting it left residue from the previous stream bleeding
// into the next one.)
func (f *BlockFilter) Reset() {
	f.buf = f.buf[:0]
	if f.bqQ != nil {
		f.bqQ.Reset()
	}
}
