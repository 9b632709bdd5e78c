package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ValueKind classifies the data flowing over a pipeline edge.
type ValueKind int

const (
	// Scalar edges carry one value per emission (raw samples, features,
	// admitted events).
	Scalar ValueKind = iota
	// Vector edges carry a block of values per emission (windows,
	// spectra, filtered blocks).
	Vector
)

// String returns a short kind name.
func (k ValueKind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Vector:
		return "vector"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// AlgorithmKind names an algorithm in the platform catalog. The spelling is
// the one used in the intermediate language.
type AlgorithmKind string

// The platform algorithm catalog (paper §3.6): windowing, transforms, data
// filtering, feature extraction and admission control, plus small glue
// operators (delta, abs, ratio, and) needed to chain them.
const (
	// Windowing.
	KindWindow AlgorithmKind = "window"

	// Transforms. fft emits an interleaved complex spectrum
	// [re0,im0,re1,im1,...]; ifft inverts it back to a real block;
	// spectralMag reduces a complex spectrum to per-bin magnitudes.
	KindFFT         AlgorithmKind = "fft"
	KindIFFT        AlgorithmKind = "ifft"
	KindSpectralMag AlgorithmKind = "spectralMag"

	// Data filtering. The iir variants are the streaming, per-sample
	// filters cheap enough for FPU-less microcontrollers; the lowPass/
	// highPass variants are the FFT block filters of the prototype.
	KindMovingAvg   AlgorithmKind = "movingAvg"
	KindEMA         AlgorithmKind = "expMovingAvg"
	KindLowPass     AlgorithmKind = "lowPass"
	KindHighPass    AlgorithmKind = "highPass"
	KindIIRLowPass  AlgorithmKind = "iirLowPass"
	KindIIRHighPass AlgorithmKind = "iirHighPass"

	// Feature extraction.
	KindVectorMagnitude AlgorithmKind = "vectorMagnitude"
	KindZCR             AlgorithmKind = "zeroCrossingRate"
	KindZCRVariance     AlgorithmKind = "zcrVariance"
	KindStat            AlgorithmKind = "stat"
	KindDominantFreq    AlgorithmKind = "dominantFreqMag"
	KindTonality        AlgorithmKind = "tonality"
	KindGoertzelBank    AlgorithmKind = "goertzelBank"

	// Glue operators.
	KindDelta AlgorithmKind = "delta"
	KindAbs   AlgorithmKind = "abs"
	KindRatio AlgorithmKind = "ratio"
	KindAnd   AlgorithmKind = "and"

	// Rate adaptation.
	KindDecimate AlgorithmKind = "decimate"

	// Admission control.
	KindMinThreshold  AlgorithmKind = "minThreshold"
	KindMaxThreshold  AlgorithmKind = "maxThreshold"
	KindBandThreshold AlgorithmKind = "bandThreshold"
)

// StatOps lists the statistics accepted by the stat algorithm's op
// parameter.
var StatOps = []string{"mean", "variance", "stddev", "min", "max", "range", "rms", "median", "meanAbs", "energy"}

// CostEstimate is the per-invocation work of one algorithm instance,
// expressed in abstract float and integer operation counts. Devices map
// these to cycles (package hub); software float emulation on an FPU-less
// microcontroller makes floatOps roughly two orders of magnitude more
// expensive there.
type CostEstimate struct {
	FloatOps float64
	IntOps   float64
}

// Add returns the sum of two estimates.
func (c CostEstimate) Add(o CostEstimate) CostEstimate {
	return CostEstimate{FloatOps: c.FloatOps + o.FloatOps, IntOps: c.IntOps + o.IntOps}
}

// Scale returns the estimate multiplied by f.
func (c CostEstimate) Scale(f float64) CostEstimate {
	return CostEstimate{FloatOps: c.FloatOps * f, IntOps: c.IntOps * f}
}

// Meta describes one catalog algorithm: its signature, parameters, and the
// models the platform uses to check hub feasibility.
type Meta struct {
	Kind AlgorithmKind
	// Summary is a one-line doc string surfaced by tooling.
	Summary string
	// MinInputs/MaxInputs bound the number of input branches.
	// MaxInputs < 0 means unbounded (aggregators).
	MinInputs, MaxInputs int
	// In and Out are the value kinds of the inputs and the output.
	In, Out ValueKind
	// Params is the parameter schema.
	Params []ParamSpec
	// OutLen returns the emitted vector length given the input vector
	// length (0 for scalar inputs). Scalar outputs return 0.
	OutLen func(p Params, inLen int) int
	// Cost returns the per-invocation work for an instance with the
	// given parameters and input vector length. An invocation is one
	// input emission; algorithms that accumulate a block of scalar
	// samples before doing their work (window, lowPass, highPass)
	// amortize the per-block work across the block's samples.
	Cost func(p Params, inLen int) CostEstimate
	// Memory returns the per-instance hub RAM in bytes.
	Memory func(p Params, inLen int) int
	// RateFactor is the ratio of output emissions to input emissions
	// (1 for sample-synchronous algorithms, 1/step for windowing).
	// Conditional emitters (thresholds) report their worst case.
	RateFactor func(p Params) float64
}

// IsAggregator reports whether the algorithm can accept more than one
// input branch.
func (m *Meta) IsAggregator() bool { return m.MaxInputs < 0 || m.MaxInputs > 1 }

// Catalog is the set of algorithms a platform ships on its sensor hub.
type Catalog struct {
	metas map[AlgorithmKind]*Meta
}

// NewCatalog builds a catalog from the given algorithm descriptions.
// Duplicate kinds are an error.
func NewCatalog(metas ...*Meta) (*Catalog, error) {
	c := &Catalog{metas: make(map[AlgorithmKind]*Meta, len(metas))}
	for _, m := range metas {
		if m.Kind == "" {
			return nil, fmt.Errorf("core: catalog entry with empty kind")
		}
		if _, dup := c.metas[m.Kind]; dup {
			return nil, fmt.Errorf("core: duplicate catalog entry %q", m.Kind)
		}
		c.metas[m.Kind] = m
	}
	return c, nil
}

// Get returns the metadata for kind.
func (c *Catalog) Get(kind AlgorithmKind) (*Meta, error) {
	m, ok := c.metas[kind]
	if !ok {
		return nil, fmt.Errorf("core: algorithm %q not in platform catalog", kind)
	}
	return m, nil
}

// Kinds returns all algorithm kinds in lexical order.
func (c *Catalog) Kinds() []AlgorithmKind {
	out := make([]AlgorithmKind, 0, len(c.metas))
	for k := range c.metas {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of algorithms in the catalog.
func (c *Catalog) Len() int { return len(c.metas) }

// identity helpers shared by catalog entries.
func scalarOut(Params, int) int { return 0 }
func unitRate(Params) float64   { return 1 }
func fixedMemory(n int) func(Params, int) int {
	return func(Params, int) int { return n }
}

// log2 of padded FFT length; at least 1.
func fftWork(n int) float64 {
	if n < 2 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return float64(p) * math.Log2(float64(p))
}

func paddedLen(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DefaultCatalog returns the platform catalog of the prototype (paper
// §3.6). The cost and memory figures model a 4-byte-float implementation
// of each algorithm written natively for the hub. It is built once and
// shared by every caller, so neither it nor a *Meta it returns may be
// modified.
func DefaultCatalog() *Catalog { return defaultCatalog() }

var defaultCatalog = sync.OnceValue(buildDefaultCatalog)

func buildDefaultCatalog() *Catalog {
	sustainSpec := ParamSpec{
		Name: "sustain", Type: IntParam,
		Default: Number(1), Min: 1, Max: 1e6,
	}
	metas := []*Meta{
		{
			Kind:      KindWindow,
			Summary:   "partition a sample stream into fixed-size, optionally tapered windows",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Vector,
			Params: []ParamSpec{
				{Name: "size", Type: IntParam, Required: true, Min: 1, Max: 1 << 20},
				{Name: "step", Type: IntParam, Default: Number(0), Min: 0, Max: 1 << 20}, // 0 means size
				{Name: "shape", Type: EnumParam, Default: Str("rectangular"), Enum: []string{"rectangular", "hamming"}},
			},
			OutLen: func(p Params, _ int) int { return p.Int("size") },
			Cost: func(p Params, _ int) CostEstimate {
				// Per input sample: circular-buffer insert plus the
				// amortized copy-out; Hamming adds one multiply.
				c := CostEstimate{IntOps: 4}
				if p.Str("shape") == "hamming" {
					c.FloatOps += 1
				}
				return c
			},
			Memory: func(p Params, _ int) int { return 4*p.Int("size") + 64 },
			RateFactor: func(p Params) float64 {
				step := p.Int("step")
				if step == 0 {
					step = p.Int("size")
				}
				return 1 / float64(step)
			},
		},
		{
			Kind:      KindFFT,
			Summary:   "fast Fourier transform; emits an interleaved complex spectrum",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Vector,
			OutLen: func(_ Params, inLen int) int { return 2 * paddedLen(inLen) },
			Cost: func(_ Params, inLen int) CostEstimate {
				return CostEstimate{FloatOps: 5 * fftWork(inLen)}
			},
			Memory:     func(_ Params, inLen int) int { return 8 * paddedLen(inLen) },
			RateFactor: unitRate,
		},
		{
			Kind:      KindIFFT,
			Summary:   "inverse FFT from an interleaved complex spectrum back to a real block",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Vector,
			OutLen: func(_ Params, inLen int) int { return inLen / 2 },
			Cost: func(_ Params, inLen int) CostEstimate {
				return CostEstimate{FloatOps: 5 * fftWork(inLen/2)}
			},
			Memory:     func(_ Params, inLen int) int { return 4 * inLen },
			RateFactor: unitRate,
		},
		{
			Kind:      KindSpectralMag,
			Summary:   "per-bin magnitudes of an interleaved complex spectrum",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Vector,
			OutLen: func(_ Params, inLen int) int { return inLen / 2 },
			Cost: func(_ Params, inLen int) CostEstimate {
				return CostEstimate{FloatOps: 3.5 * float64(inLen)}
			},
			Memory:     func(_ Params, inLen int) int { return 2 * inLen },
			RateFactor: unitRate,
		},
		{
			Kind:      KindMovingAvg,
			Summary:   "simple moving average over the last N samples",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "size", Type: IntParam, Required: true, Min: 1, Max: 1 << 16},
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 3, IntOps: 2} },
			Memory:     func(p Params, _ int) int { return 4*p.Int("size") + 16 },
			RateFactor: unitRate,
		},
		{
			Kind:      KindEMA,
			Summary:   "exponential moving average with smoothing factor alpha",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "alpha", Type: FloatParam, Required: true, Min: 1e-9, Max: 1},
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 3} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
		{
			Kind:      KindLowPass,
			Summary:   "FFT-based low-pass filter over fixed-size blocks",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Vector,
			Params: []ParamSpec{
				{Name: "cutoff", Type: FloatParam, Required: true, Min: 0, Max: 1e9},
				{Name: "block", Type: IntParam, Required: true, Min: 2, Max: 1 << 20},
			},
			OutLen: func(p Params, _ int) int { return p.Int("block") },
			Cost: func(p Params, _ int) CostEstimate {
				// Per input sample: the per-block FFT+mask+IFFT work
				// amortized over the block, plus buffering.
				b := p.Int("block")
				perBlock := 10*fftWork(b) + float64(b)
				return CostEstimate{FloatOps: perBlock / float64(b), IntOps: 2}
			},
			Memory:     func(p Params, _ int) int { return 16 * p.Int("block") },
			RateFactor: func(p Params) float64 { return 1 / float64(p.Int("block")) },
		},
		{
			Kind:      KindHighPass,
			Summary:   "FFT-based high-pass filter over fixed-size blocks",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Vector,
			Params: []ParamSpec{
				{Name: "cutoff", Type: FloatParam, Required: true, Min: 0, Max: 1e9},
				{Name: "block", Type: IntParam, Required: true, Min: 2, Max: 1 << 20},
			},
			OutLen: func(p Params, _ int) int { return p.Int("block") },
			Cost: func(p Params, _ int) CostEstimate {
				// Per input sample: the per-block FFT+mask+IFFT work
				// amortized over the block, plus buffering.
				b := p.Int("block")
				perBlock := 10*fftWork(b) + float64(b)
				return CostEstimate{FloatOps: perBlock / float64(b), IntOps: 2}
			},
			Memory:     func(p Params, _ int) int { return 16 * p.Int("block") },
			RateFactor: func(p Params) float64 { return 1 / float64(p.Int("block")) },
		},
		{
			Kind:      KindIIRLowPass,
			Summary:   "streaming biquad low-pass filter (per-sample, MCU-friendly)",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "cutoff", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
				{Name: "rate", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 9} },
			Memory:     fixedMemory(48),
			RateFactor: unitRate,
		},
		{
			Kind:      KindIIRHighPass,
			Summary:   "streaming biquad high-pass filter (per-sample, MCU-friendly)",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "cutoff", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
				{Name: "rate", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 9} },
			Memory:     fixedMemory(48),
			RateFactor: unitRate,
		},
		{
			Kind:      KindGoertzelBank,
			Summary:   "bank of Goertzel detectors scanning a frequency band; emits the best normalized tone score per block (fixed-point friendly)",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "bandLow", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
				{Name: "bandHigh", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
				{Name: "rate", Type: FloatParam, Required: true, Min: 1e-6, Max: 1e9},
				{Name: "block", Type: IntParam, Required: true, Min: 8, Max: 1 << 16},
				{Name: "detectors", Type: IntParam, Required: true, Min: 1, Max: 256},
			},
			OutLen: scalarOut,
			Cost: func(p Params, _ int) CostEstimate {
				// Classic fixed-point Goertzel: one Q15 multiply and two
				// adds per detector per sample.
				return CostEstimate{IntOps: 4 * float64(p.Int("detectors"))}
			},
			Memory:     func(p Params, _ int) int { return 16*p.Int("detectors") + 32 },
			RateFactor: func(p Params) float64 { return 1 / float64(p.Int("block")) },
		},
		{
			Kind:      KindVectorMagnitude,
			Summary:   "Euclidean magnitude across input branches (aggregator)",
			MinInputs: 1, MaxInputs: -1, In: Scalar, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 12} },
			Memory:     fixedMemory(32),
			RateFactor: unitRate,
		},
		{
			Kind:      KindZCR,
			Summary:   "zero-crossing rate of a window",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(_ Params, inLen int) CostEstimate { return CostEstimate{IntOps: 2 * float64(inLen), FloatOps: 2} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
		{
			Kind:      KindZCRVariance,
			Summary:   "variance of per-sub-window zero-crossing rates (speech/music feature)",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Scalar,
			Params: []ParamSpec{
				{Name: "subwindows", Type: IntParam, Required: true, Min: 2, Max: 1 << 12},
			},
			OutLen: scalarOut,
			Cost: func(p Params, inLen int) CostEstimate {
				return CostEstimate{IntOps: 2 * float64(inLen), FloatOps: 4 * float64(p.Int("subwindows"))}
			},
			Memory:     func(p Params, _ int) int { return 4*p.Int("subwindows") + 16 },
			RateFactor: unitRate,
		},
		{
			Kind:      KindStat,
			Summary:   "windowed statistic (mean, variance, stddev, min, max, range, rms, median, meanAbs, energy)",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Scalar,
			Params: []ParamSpec{
				{Name: "op", Type: EnumParam, Required: true, Enum: StatOps},
			},
			OutLen: scalarOut,
			Cost: func(p Params, inLen int) CostEstimate {
				n := float64(inLen)
				switch p.Str("op") {
				case "min", "max", "range":
					return CostEstimate{FloatOps: n}
				case "median":
					return CostEstimate{FloatOps: n, IntOps: n * math.Log2(math.Max(n, 2))}
				case "variance", "stddev":
					return CostEstimate{FloatOps: 3 * n}
				default:
					return CostEstimate{FloatOps: 2 * n}
				}
			},
			Memory: func(p Params, inLen int) int {
				if p.Str("op") == "median" {
					return 4*inLen + 16
				}
				return 32
			},
			RateFactor: unitRate,
		},
		{
			Kind:      KindDominantFreq,
			Summary:   "magnitude of the dominant non-DC spectral bin",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(_ Params, inLen int) CostEstimate { return CostEstimate{FloatOps: float64(inLen)} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
		{
			Kind:      KindTonality,
			Summary:   "peak-to-mean spectral ratio, gated to a frequency band (pitched-sound feature)",
			MinInputs: 1, MaxInputs: 1, In: Vector, Out: Scalar,
			Params: []ParamSpec{
				{Name: "bandLow", Type: FloatParam, Required: true, Min: 0, Max: 1e9},
				{Name: "bandHigh", Type: FloatParam, Required: true, Min: 0, Max: 1e9},
				{Name: "rate", Type: FloatParam, Required: true, Min: 1e-9, Max: 1e9},
			},
			OutLen:     scalarOut,
			Cost:       func(_ Params, inLen int) CostEstimate { return CostEstimate{FloatOps: 2 * float64(inLen)} },
			Memory:     fixedMemory(32),
			RateFactor: unitRate,
		},
		{
			Kind:      KindDelta,
			Summary:   "difference between consecutive values",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 1} },
			Memory:     fixedMemory(8),
			RateFactor: unitRate,
		},
		{
			Kind:      KindAbs,
			Summary:   "absolute value",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 1} },
			Memory:     fixedMemory(0),
			RateFactor: unitRate,
		},
		{
			Kind:      KindRatio,
			Summary:   "ratio of the first input to the second (aggregator of exactly two branches)",
			MinInputs: 2, MaxInputs: 2, In: Scalar, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 2} },
			Memory:     fixedMemory(24),
			RateFactor: unitRate,
		},
		{
			Kind:      KindAnd,
			Summary:   "emits the minimum of all inputs when every branch produced a value for the same emission (aggregator)",
			MinInputs: 2, MaxInputs: -1, In: Scalar, Out: Scalar,
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{IntOps: 8} },
			Memory:     fixedMemory(64),
			RateFactor: unitRate,
		},
		{
			Kind:      KindDecimate,
			Summary:   "rate adaptation: keep every factor-th sample, dropping the rest",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "factor", Type: IntParam, Required: true, Min: 1, Max: 1 << 12},
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{IntOps: 2} },
			Memory:     fixedMemory(8),
			RateFactor: func(p Params) float64 { return 1 / float64(p.Int("factor")) },
		},
		{
			Kind:      KindMinThreshold,
			Summary:   "admission control: pass values >= min, optionally sustained for N consecutive emissions",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "min", Type: FloatParam, Required: true, Min: unboundedMin, Max: unboundedMax},
				sustainSpec,
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 1, IntOps: 2} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
		{
			Kind:      KindMaxThreshold,
			Summary:   "admission control: pass values <= max, optionally sustained",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "max", Type: FloatParam, Required: true, Min: unboundedMin, Max: unboundedMax},
				sustainSpec,
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 1, IntOps: 2} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
		{
			Kind:      KindBandThreshold,
			Summary:   "admission control: pass values in [min, max], optionally sustained",
			MinInputs: 1, MaxInputs: 1, In: Scalar, Out: Scalar,
			Params: []ParamSpec{
				{Name: "min", Type: FloatParam, Required: true, Min: unboundedMin, Max: unboundedMax},
				{Name: "max", Type: FloatParam, Required: true, Min: unboundedMin, Max: unboundedMax},
				sustainSpec,
			},
			OutLen:     scalarOut,
			Cost:       func(Params, int) CostEstimate { return CostEstimate{FloatOps: 2, IntOps: 2} },
			Memory:     fixedMemory(16),
			RateFactor: unitRate,
		},
	}
	c, err := NewCatalog(metas...)
	if err != nil {
		panic(err) // the default catalog is statically correct
	}
	return c
}
