package interp

import (
	"fmt"
	"math"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
)

// newInstance constructs the runtime state for one plan node, mirroring the
// paper's per-algorithm data structures (§3.6): the runtime "allocates
// memory for each algorithm in the configuration". In Q15 mode the
// stateful scalar kernels, thresholds, and window statistics get their
// fixed-point twins; spectral stages (FFT chain, tonality, dominant
// frequency) and structural glue (joins, delta, abs) stay in float64 —
// delta and abs are exact on the Q15 grid anyway, and the FFT chain is
// exactly what the fixed-point MCU does not run (Q15 low/high-pass plans
// use the streaming IIR backend instead of the FFT one).
func newInstance(n *core.PlanNode, prec Precision) (instance, error) {
	p := n.Params
	switch n.Kind {
	case core.KindWindow:
		size := p.Int("size")
		step := p.Int("step")
		if step == 0 {
			step = size
		}
		shape, err := dsp.ParseWindowShape(p.Str("shape"))
		if err != nil {
			return nil, err
		}
		w, err := dsp.NewWindower(size, step, shape)
		if err != nil {
			return nil, err
		}
		return &windowInst{w: w}, nil

	case core.KindFFT:
		return &fftInst{}, nil
	case core.KindIFFT:
		return &ifftInst{}, nil
	case core.KindSpectralMag:
		return &spectralMagInst{}, nil

	case core.KindMovingAvg:
		if prec == Q15 {
			ma, err := dsp.NewMovingAveragerQ15(p.Int("size"))
			if err != nil {
				return nil, err
			}
			return newScalarInst(ma), nil
		}
		ma, err := dsp.NewMovingAverager(p.Int("size"))
		if err != nil {
			return nil, err
		}
		return newScalarInst(ma), nil
	case core.KindEMA:
		if prec == Q15 {
			ema, err := dsp.NewEMAQ15(p.Float("alpha"))
			if err != nil {
				return nil, err
			}
			return newScalarInst(ema), nil
		}
		ema, err := dsp.NewEMA(p.Float("alpha"))
		if err != nil {
			return nil, err
		}
		return newScalarInst(ema), nil

	case core.KindIIRLowPass, core.KindIIRHighPass:
		var bq *dsp.Biquad
		var err error
		if n.Kind == core.KindIIRLowPass {
			bq, err = dsp.NewLowPassBiquad(p.Float("cutoff"), p.Float("rate"))
		} else {
			bq, err = dsp.NewHighPassBiquad(p.Float("cutoff"), p.Float("rate"))
		}
		if err != nil {
			return nil, err
		}
		if prec == Q15 {
			return newScalarInst(bq.Q15()), nil
		}
		return newScalarInst(bq), nil

	case core.KindGoertzelBank:
		bank, err := dsp.NewGoertzelBank(
			p.Float("bandLow"), p.Float("bandHigh"), p.Float("rate"),
			p.Int("block"), p.Int("detectors"))
		if err != nil {
			return nil, err
		}
		return &goertzelInst{bank: bank}, nil

	case core.KindLowPass, core.KindHighPass:
		kind := dsp.LowPass
		if n.Kind == core.KindHighPass {
			kind = dsp.HighPass
		}
		rate := n.Rate // per-sample invocation rate equals the input sample rate
		var bf *dsp.BlockFilter
		var err error
		if prec == Q15 {
			// The paper's MCU cannot run the FFT filter in real time
			// (§4); fixed-point mode uses the streaming Q15 IIR backend
			// with identical block framing instead.
			bf, err = dsp.NewIIRBlockFilterQ15(kind, p.Float("cutoff"), rate, p.Int("block"))
		} else {
			bf, err = dsp.NewBlockFilter(kind, p.Float("cutoff"), rate, p.Int("block"))
		}
		if err != nil {
			return nil, err
		}
		return &blockFilterInst{f: bf}, nil

	case core.KindDecimate:
		return &decimateInst{k: p.Int("factor")}, nil

	case core.KindVectorMagnitude:
		return newJoinInst(len(n.Inputs), func(vals []float64) (float64, bool) {
			return dsp.VectorMagnitude(vals...), true
		}), nil
	case core.KindRatio:
		return newJoinInst(len(n.Inputs), func(vals []float64) (float64, bool) {
			if vals[1] == 0 {
				return 0, false
			}
			return vals[0] / vals[1], true
		}), nil
	case core.KindAnd:
		return newJoinInst(len(n.Inputs), func(vals []float64) (float64, bool) {
			return dsp.Min(vals), true
		}), nil

	case core.KindZCR:
		if prec == Q15 {
			return q15FeatureInst(func(q []int32) (int32, bool) {
				return dsp.ZeroCrossingRateQ15(q), true
			}), nil
		}
		return vectorFeatureInst(func(win []float64) (float64, bool) {
			return dsp.ZeroCrossingRate(win), true
		}), nil
	case core.KindZCRVariance:
		k := p.Int("subwindows")
		if prec == Q15 {
			var qrates []int32 // per-instance scratch for the sub-window rates
			if k >= 2 {
				qrates = make([]int32, k)
			}
			return q15FeatureInst(func(q []int32) (int32, bool) {
				return zcrVarianceQ15(qrates, q, k)
			}), nil
		}
		var rates []float64 // per-instance scratch for the sub-window rates
		if k >= 2 {
			rates = make([]float64, k)
		}
		return vectorFeatureInst(func(win []float64) (float64, bool) {
			return zcrVariance(rates, win, k)
		}), nil
	case core.KindStat:
		if prec == Q15 {
			fn, err := statFuncQ15(p.Str("op"))
			if err != nil {
				return nil, err
			}
			return q15FeatureInst(func(q []int32) (int32, bool) {
				return fn(q), true
			}), nil
		}
		fn, err := statFunc(p.Str("op"))
		if err != nil {
			return nil, err
		}
		return vectorFeatureInst(func(win []float64) (float64, bool) {
			return fn(win), true
		}), nil
	case core.KindDominantFreq:
		return vectorFeatureInst(func(mags []float64) (float64, bool) {
			return dominantMag(mags), true
		}), nil
	case core.KindTonality:
		lo, hi, rate := p.Float("bandLow"), p.Float("bandHigh"), p.Float("rate")
		return vectorFeatureInst(func(mags []float64) (float64, bool) {
			return tonality(mags, lo, hi, rate), true
		}), nil

	case core.KindDelta:
		return &deltaInst{}, nil
	case core.KindAbs:
		return &absInst{}, nil

	case core.KindMinThreshold:
		return newThresholdInst(dsp.NewMinThreshold(p.Float("min")), p.Int("sustain"), prec), nil
	case core.KindMaxThreshold:
		return newThresholdInst(dsp.NewMaxThreshold(p.Float("max")), p.Int("sustain"), prec), nil
	case core.KindBandThreshold:
		gate, err := dsp.NewBandThreshold(p.Float("min"), p.Float("max"))
		if err != nil {
			return nil, err
		}
		return newThresholdInst(gate, p.Int("sustain"), prec), nil
	}
	return nil, fmt.Errorf("no runtime implementation for algorithm %q", n.Kind)
}

// --- windowing -----------------------------------------------------------

type windowInst struct {
	w   *dsp.Windower
	seq int64
}

func (i *windowInst) Push(_ int, v Value) (Value, bool) {
	win, ok := i.w.Push(v.Scalar)
	if !ok {
		return Value{}, false
	}
	out := Value{Seq: i.seq, Vector: win}
	i.seq++
	return out, true
}

func (i *windowInst) Reset() { i.w.Reset(); i.seq = 0 }

func (i *windowInst) consumeBlock(src []float64) (int, Value, bool) {
	n, win, ok := i.w.Consume(src)
	if !ok {
		return n, Value{}, false
	}
	out := Value{Seq: i.seq, Vector: win}
	i.seq++
	return n, out, true
}

// --- transforms ----------------------------------------------------------

// Vector-emitting instances own their output buffers and reuse them across
// pushes: a Vector is valid only while the delivery cascade for the sample
// that produced it is running, and no instance may mutate an input vector
// or retain a reference past its Push call. This keeps the per-sample path
// allocation-free without copying at every edge; instances stay race-free
// because each machine owns its instances.

type fftInst struct {
	spec []complex128
	out  []float64
}

func (i *fftInst) Push(_ int, v Value) (Value, bool) {
	spec, err := dsp.FFTRealInto(i.spec, v.Vector)
	i.spec = spec
	if err != nil || len(spec) == 0 {
		return Value{}, false
	}
	n := 2 * len(spec)
	if cap(i.out) < n {
		i.out = make([]float64, n)
	}
	out := i.out[:n]
	for k, c := range spec {
		out[2*k] = real(c)
		out[2*k+1] = imag(c)
	}
	return Value{Seq: v.Seq, Vector: out}, true
}

func (i *fftInst) Reset() {}

type ifftInst struct {
	buf []complex128
	out []float64
}

func (i *ifftInst) Push(_ int, v Value) (Value, bool) {
	n := len(v.Vector) / 2
	if n == 0 || !dsp.IsPowerOfTwo(n) {
		return Value{}, false
	}
	if cap(i.buf) < n {
		i.buf = make([]complex128, n)
	}
	buf := i.buf[:n]
	for k := range buf {
		buf[k] = complex(v.Vector[2*k], v.Vector[2*k+1])
	}
	if err := dsp.IFFT(buf); err != nil {
		return Value{}, false
	}
	if cap(i.out) < n {
		i.out = make([]float64, n)
	}
	out := i.out[:n]
	for k, c := range buf {
		out[k] = real(c)
	}
	return Value{Seq: v.Seq, Vector: out}, true
}

func (i *ifftInst) Reset() {}

type spectralMagInst struct {
	out []float64
}

func (i *spectralMagInst) Push(_ int, v Value) (Value, bool) {
	n := len(v.Vector) / 2
	if cap(i.out) < n {
		i.out = make([]float64, n)
	}
	out := i.out[:n]
	for k := 0; k < n; k++ {
		out[k] = math.Hypot(v.Vector[2*k], v.Vector[2*k+1])
	}
	return Value{Seq: v.Seq, Vector: out}, true
}

func (i *spectralMagInst) Reset() {}

// --- scalar filters ------------------------------------------------------

// scalarFilter is the common shape of dsp.MovingAverager and dsp.EMA.
type scalarFilter interface {
	Push(float64) (float64, bool)
	Reset()
}

// blockScalarFilter is a scalar filter with a block fast path: PushBlock
// appends emissions to dst[:0] and reports the leading-sample skip, with
// the dense-suffix guarantee blockMapper requires.
type blockScalarFilter interface {
	PushBlock(dst, src []float64) (out []float64, skip int)
}

type scalarFilterInst struct{ f scalarFilter }

func (i *scalarFilterInst) Push(_ int, v Value) (Value, bool) {
	out, ok := i.f.Push(v.Scalar)
	if !ok {
		return Value{}, false
	}
	return Value{Seq: v.Seq, Scalar: out}, true
}

func (i *scalarFilterInst) Reset() { i.f.Reset() }

// blockScalarInst adds blockMapper on top of scalarFilterInst for kernels
// with a block fast path. The output scratch is instance-owned: downstream
// consumption is depth-first and completes before the next pushBlock, the
// same ownership discipline vector emitters already follow.
type blockScalarInst struct {
	scalarFilterInst
	bf  blockScalarFilter
	out []float64
}

// newScalarInst wraps a scalar filter, picking the block-capable adapter
// when the kernel offers one.
func newScalarInst(f scalarFilter) instance {
	if bf, ok := f.(blockScalarFilter); ok {
		return &blockScalarInst{scalarFilterInst: scalarFilterInst{f: f}, bf: bf}
	}
	return &scalarFilterInst{f: f}
}

func (i *blockScalarInst) pushBlock(src []float64) ([]float64, int) {
	if cap(i.out) < len(src) {
		i.out = make([]float64, 0, len(src))
	}
	out, skip := i.bf.PushBlock(i.out[:0], src)
	i.out = out
	return out, skip
}

type blockFilterInst struct {
	f   *dsp.BlockFilter
	seq int64
}

func (i *blockFilterInst) Push(_ int, v Value) (Value, bool) {
	block, ok := i.f.Push(v.Scalar)
	if !ok {
		return Value{}, false
	}
	out := Value{Seq: i.seq, Vector: block}
	i.seq++
	return out, true
}

func (i *blockFilterInst) Reset() { i.f.Reset(); i.seq = 0 }

func (i *blockFilterInst) consumeBlock(src []float64) (int, Value, bool) {
	n, block, ok := i.f.Consume(src)
	if !ok {
		return n, Value{}, false
	}
	out := Value{Seq: i.seq, Vector: block}
	i.seq++
	return n, out, true
}

// goertzelInst adapts the Goertzel bank: block-emitting, so it opens a
// fresh sequence domain like windowing does.
type goertzelInst struct {
	bank *dsp.GoertzelBank
	seq  int64
}

func (i *goertzelInst) Push(_ int, v Value) (Value, bool) {
	score, ok := i.bank.Push(v.Scalar)
	if !ok {
		return Value{}, false
	}
	out := Value{Seq: i.seq, Scalar: score}
	i.seq++
	return out, true
}

func (i *goertzelInst) Reset() { i.bank.Reset(); i.seq = 0 }

func (i *goertzelInst) consumeBlock(src []float64) (int, Value, bool) {
	n, score, ok := i.bank.Consume(src)
	if !ok {
		return n, Value{}, false
	}
	out := Value{Seq: i.seq, Scalar: score}
	i.seq++
	return n, out, true
}

// decimateInst keeps every k-th sample starting with the first. The output
// stream has its own (slower) clock, so like windowing it opens a fresh
// sequence domain. Decimation is value-agnostic: it passes Q15-grid values
// through untouched, so it behaves identically in both precisions.
type decimateInst struct {
	k     int
	phase int // samples to drop before the next kept sample
	seq   int64
}

func (i *decimateInst) Push(_ int, v Value) (Value, bool) {
	if i.phase > 0 {
		i.phase--
		return Value{}, false
	}
	i.phase = i.k - 1
	out := Value{Seq: i.seq, Scalar: v.Scalar}
	i.seq++
	return out, true
}

func (i *decimateInst) Reset() { i.phase, i.seq = 0, 0 }

func (i *decimateInst) consumeBlock(src []float64) (int, Value, bool) {
	if i.phase >= len(src) {
		i.phase -= len(src)
		return len(src), Value{}, false
	}
	n := i.phase + 1
	v := src[i.phase]
	i.phase = i.k - 1
	out := Value{Seq: i.seq, Scalar: v}
	i.seq++
	return n, out, true
}

// --- vector features -----------------------------------------------------

// featureFn reduces one window/spectrum to a scalar feature.
type featureFn func([]float64) (float64, bool)

type featureInst struct{ fn featureFn }

func vectorFeatureInst(fn featureFn) instance { return &featureInst{fn: fn} }

func (i *featureInst) Push(_ int, v Value) (Value, bool) {
	out, ok := i.fn(v.Vector)
	if !ok {
		return Value{}, false
	}
	return Value{Seq: v.Seq, Scalar: out}, true
}

func (i *featureInst) Reset() {}

// q15Feature reduces a quantized window to a Q15 scalar feature.
type q15Feature func([]int32) (int32, bool)

// q15FeatInst quantizes each incoming window into instance-owned int32
// scratch and reduces it with a fixed-point feature — the Q15 twin of
// featureInst. The emitted scalar is the exact float image of the Q15
// result, so downstream float glue sees on-grid values.
type q15FeatInst struct {
	fn   q15Feature
	qwin []int32
}

func q15FeatureInst(fn q15Feature) instance { return &q15FeatInst{fn: fn} }

func (i *q15FeatInst) Push(_ int, v Value) (Value, bool) {
	if cap(i.qwin) < len(v.Vector) {
		i.qwin = make([]int32, len(v.Vector))
	}
	q := dsp.ToQ15Slice(i.qwin[:cap(i.qwin)], v.Vector)
	out, ok := i.fn(q)
	if !ok {
		return Value{}, false
	}
	return Value{Seq: v.Seq, Scalar: dsp.FromQ15(out)}, true
}

func (i *q15FeatInst) Reset() {}

// statFuncQ15 maps a stat op name to its fixed-point implementation.
func statFuncQ15(op string) (func([]int32) int32, error) {
	switch op {
	case "mean":
		return dsp.MeanQ15, nil
	case "variance":
		return dsp.VarianceQ15, nil
	case "stddev":
		return dsp.StdDevQ15, nil
	case "min":
		return dsp.MinQ15, nil
	case "max":
		return dsp.MaxQ15, nil
	case "range":
		return dsp.RangeQ15, nil
	case "rms":
		return dsp.RMSQ15, nil
	case "median":
		return dsp.MedianQ15, nil
	case "meanAbs":
		return dsp.MeanAbsQ15, nil
	case "energy":
		return dsp.EnergyQ15, nil
	}
	return nil, fmt.Errorf("unknown stat op %q", op)
}

// zcrVarianceQ15 is the fixed-point twin of zcrVariance: the variance of
// the k sub-window zero-crossing rates, all in Q15.
func zcrVarianceQ15(qrates, q []int32, k int) (int32, bool) {
	if k < 2 || len(q) < k {
		return 0, false
	}
	sub := len(q) / k
	for i := 0; i < k; i++ {
		qrates[i] = dsp.ZeroCrossingRateQ15(q[i*sub : (i+1)*sub])
	}
	return dsp.VarianceQ15(qrates), true
}

// statFunc maps a stat op name to its implementation.
func statFunc(op string) (func([]float64) float64, error) {
	switch op {
	case "mean":
		return dsp.Mean, nil
	case "variance":
		return dsp.Variance, nil
	case "stddev":
		return dsp.StdDev, nil
	case "min":
		return dsp.Min, nil
	case "max":
		return dsp.Max, nil
	case "range":
		return dsp.Range, nil
	case "rms":
		return dsp.RMS, nil
	case "median":
		return dsp.Median, nil
	case "meanAbs":
		return dsp.MeanAbs, nil
	case "energy":
		return dsp.Energy, nil
	}
	return nil, fmt.Errorf("unknown stat op %q", op)
}

// zcrVariance splits win into k equal sub-windows and returns the variance
// of their zero-crossing rates (paper §3.7.2, Music Journal). rates is
// caller-owned scratch of length k.
func zcrVariance(rates, win []float64, k int) (float64, bool) {
	if k < 2 || len(win) < k {
		return 0, false
	}
	sub := len(win) / k
	for i := 0; i < k; i++ {
		rates[i] = dsp.ZeroCrossingRate(win[i*sub : (i+1)*sub])
	}
	return dsp.Variance(rates), true
}

// dominantMag returns the largest non-DC magnitude in the first half of a
// magnitude spectrum.
func dominantMag(mags []float64) float64 {
	best := 0.0
	for k := 1; k <= len(mags)/2; k++ {
		if mags[k] > best {
			best = mags[k]
		}
	}
	return best
}

// tonality returns the peak-to-mean ratio of the non-DC spectrum when the
// dominant bin's frequency falls inside [lo, hi] Hz, and 0 otherwise.
func tonality(mags []float64, lo, hi, rate float64) float64 {
	n := len(mags)
	if n < 4 {
		return 0
	}
	best, bestK := 0.0, 0
	var sum float64
	for k := 1; k <= n/2; k++ {
		sum += mags[k]
		if mags[k] > best {
			best, bestK = mags[k], k
		}
	}
	mean := sum / float64(n/2)
	if mean == 0 || bestK == 0 {
		return 0
	}
	freq := dsp.BinFrequency(bestK, n, rate)
	if freq < lo || freq > hi {
		return 0
	}
	return best / mean
}

// --- glue ----------------------------------------------------------------

type deltaInst struct {
	prev   float64
	primed bool
}

func (i *deltaInst) Push(_ int, v Value) (Value, bool) {
	if !i.primed {
		i.prev, i.primed = v.Scalar, true
		return Value{}, false
	}
	d := v.Scalar - i.prev
	i.prev = v.Scalar
	return Value{Seq: v.Seq, Scalar: d}, true
}

func (i *deltaInst) Reset() { i.prev, i.primed = 0, false }

type absInst struct{}

func (absInst) Push(_ int, v Value) (Value, bool) {
	return Value{Seq: v.Seq, Scalar: math.Abs(v.Scalar)}, true
}

func (absInst) Reset() {}

// --- aggregation (branch join) -------------------------------------------

// joinInst synchronizes N input ports on emission sequence numbers: when
// every port has delivered a value with the same Seq, the combine function
// runs over the port values in port order. Stale pending entries (sequence
// numbers that can no longer complete because every port has advanced past
// them) are pruned to bound memory, as a microcontroller implementation
// must.
//
// Each port's sequence numbers are non-decreasing. Pending slots live in a
// slice sorted by Seq, so the per-push work stays logarithmic even when
// block dispatch lets a leading port queue a whole block before the other
// ports arrive: the leading port appends at the tail, the others find their
// slot by binary search, stale slots (below the slowest port's latest Seq)
// form a prefix, and a slot completes only once it is the oldest.
type joinInst struct {
	ports   int
	combine func([]float64) (float64, bool)
	// slots[head:] are the pending slots in ascending Seq order; the
	// prefix before head is spent and compacted away when the tail runs
	// out of capacity.
	slots  []*joinSlot
	head   int
	latest []int64 // highest Seq seen per port
	primed []bool
	free   []*joinSlot // recycled slots; steady state allocates none
}

type joinSlot struct {
	seq   int64
	vals  []float64
	have  []bool
	count int
}

func newJoinInst(ports int, combine func([]float64) (float64, bool)) *joinInst {
	return &joinInst{
		ports:   ports,
		combine: combine,
		latest:  make([]int64, ports),
		primed:  make([]bool, ports),
	}
}

func (i *joinInst) Push(port int, v Value) (Value, bool) {
	i.latest[port] = v.Seq
	i.primed[port] = true
	slot := i.find(v.Seq)
	if !slot.have[port] {
		slot.have[port] = true
		slot.count++
	}
	slot.vals[port] = v.Scalar

	i.prune()

	if slot.count < i.ports {
		return Value{}, false
	}
	// Every port has reached v.Seq, so prune left this slot at the head.
	i.popHead()
	out, ok := i.combine(slot.vals)
	i.recycle(slot)
	if !ok {
		return Value{}, false
	}
	return Value{Seq: v.Seq, Scalar: out}, true
}

// find returns the pending slot for seq, inserting a fresh one in order if
// none exists. Appending past the newest pending seq is the common case
// (the leading port); any other seq is found by binary search.
func (i *joinInst) find(seq int64) *joinSlot {
	if len(i.slots) == cap(i.slots) && i.head > 0 {
		i.compact()
	}
	n := len(i.slots)
	if i.head == n || i.slots[n-1].seq < seq {
		slot := i.newSlot(seq)
		i.slots = append(i.slots, slot)
		return slot
	}
	lo, hi := i.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if i.slots[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if i.slots[lo].seq == seq {
		return i.slots[lo]
	}
	slot := i.newSlot(seq)
	i.slots = append(i.slots, nil)
	copy(i.slots[lo+1:], i.slots[lo:n])
	i.slots[lo] = slot
	return slot
}

// compact moves the pending slots to the front of the backing array, so
// the spent prefix is reused before the slice grows.
func (i *joinInst) compact() {
	n := copy(i.slots, i.slots[i.head:])
	clear(i.slots[n:])
	i.slots = i.slots[:n]
	i.head = 0
}

// popHead drops the oldest pending slot without recycling it.
func (i *joinInst) popHead() {
	i.slots[i.head] = nil
	i.head++
	if i.head == len(i.slots) {
		i.slots = i.slots[:0]
		i.head = 0
	}
}

// newSlot pops a recycled slot or allocates the pool's first few.
func (i *joinInst) newSlot(seq int64) *joinSlot {
	if n := len(i.free); n > 0 {
		slot := i.free[n-1]
		i.free = i.free[:n-1]
		slot.seq = seq
		return slot
	}
	return &joinSlot{seq: seq, vals: make([]float64, i.ports), have: make([]bool, i.ports)}
}

// recycle clears a slot and returns it to the pool.
func (i *joinInst) recycle(slot *joinSlot) {
	for p := range slot.have {
		slot.have[p] = false
	}
	slot.count = 0
	i.free = append(i.free, slot)
}

// prune drops pending sequences older than the slowest port's progress:
// emissions are monotone per port, so such sequences can never complete.
// They sit at the front of the sorted slots.
func (i *joinInst) prune() {
	min := int64(math.MaxInt64)
	for p := 0; p < i.ports; p++ {
		if !i.primed[p] {
			return // a port has produced nothing yet; nothing is provably stale
		}
		if i.latest[p] < min {
			min = i.latest[p]
		}
	}
	for i.head < len(i.slots) && i.slots[i.head].seq < min {
		slot := i.slots[i.head]
		i.popHead()
		i.recycle(slot)
	}
}

func (i *joinInst) Reset() {
	for _, slot := range i.slots[i.head:] {
		i.recycle(slot)
	}
	clear(i.slots)
	i.slots = i.slots[:0]
	i.head = 0
	for p := range i.latest {
		i.latest[p] = 0
		i.primed[p] = false
	}
}

// --- admission control ---------------------------------------------------

// thresholdInst gates values and implements the sustain extension: the
// condition must hold for `sustain` consecutive emissions before values
// pass (used for the paper's "pitched sounds lasting longer than 650 ms").
type thresholdInst struct {
	gate    admitGate
	sustain int
	run     int
}

// admitGate abstracts the float and Q15 threshold twins behind the single
// decision the interpreter needs.
type admitGate interface {
	Admits(v float64) bool
}

// q15Gate adapts ThresholdQ15: the comparison quantizes the input and
// compares int32 bounds, so float- and fixed-point-fed values that round
// to the same grid point get the same verdict.
type q15Gate struct{ t *dsp.ThresholdQ15 }

func (g q15Gate) Admits(v float64) bool { return g.t.AdmitsFloat(v) }

// newThresholdInst picks the gate implementation for the precision.
func newThresholdInst(gate *dsp.Threshold, sustain int, prec Precision) instance {
	if prec == Q15 {
		return &thresholdInst{gate: q15Gate{t: gate.Q15()}, sustain: sustain}
	}
	return &thresholdInst{gate: gate, sustain: sustain}
}

func (i *thresholdInst) Push(_ int, v Value) (Value, bool) {
	if !i.gate.Admits(v.Scalar) {
		i.run = 0
		return Value{}, false
	}
	i.run++
	if i.run < i.sustain {
		return Value{}, false
	}
	return v, true
}

func (i *thresholdInst) Reset() { i.run = 0 }
