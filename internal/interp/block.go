package interp

import (
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
)

// This file implements the interpreter's two fast paths.
//
// Block dispatch: PushBlock feeds a whole sensor block through the graph
// with per-block rather than per-sample dispatch. Stages advertise block
// capability through two narrow interfaces. A blockConsumer re-blocks the
// stream (windowing, block filters, Goertzel banks): it consumes a prefix
// of the input up to its next emission boundary, so each emission still
// cascades depth-first immediately — which is what keeps the
// vector-aliasing contract intact (a vector is valid only during the
// cascade of the sample that produced it). A blockMapper is a dense scalar
// stage (moving average, EMA, biquad): it maps the block 1:1 onto a suffix
// of the input, writing into instance-owned scratch that downstream
// consumption finishes with before the call returns. Everything else falls
// back to the per-value scalar loop. Wake events carry the in-block offset
// of the raw sample that triggered them, and a stable sort by offset
// restores exact per-sample ordering, so a PushBlock call is
// observationally identical to the equivalent PushSample loop.
//
// Precision: a machine built with NewPrecision(plan, Q15) runs its
// stateful kernels on saturating int32 Q15 arithmetic (internal/dsp/fixed.go),
// quantizing samples at sensor ingress and wake values at egress. Spectral
// stages (FFT, magnitudes, tonality) stay in float64 — the paper's MSP430
// cannot run the FFT chain in real time at all, so Q15 mode substitutes
// the IIR block-filter backend for the FFT one; the float spectral stages
// remain only for plans that insist on them.

// Precision selects the numeric substrate a machine executes on.
type Precision int

const (
	// Float64 is the default full-precision mode.
	Float64 Precision = iota
	// Q15 runs stateful kernels on saturating int32 fixed-point
	// arithmetic with 15 fractional bits, modeling the FPU-less MCU hub.
	Q15
)

// String returns the mode's flag-friendly name.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Q15:
		return "q15"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision converts a name produced by String back into a mode.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "float64", "":
		return Float64, nil
	case "q15":
		return Q15, nil
	default:
		return Float64, fmt.Errorf("interp: unknown precision %q (want float64 or q15)", name)
	}
}

// BlockWake is a wake event produced by PushBlock, tagged with the offset
// (within the pushed block) of the raw sample whose delivery triggered it
// and with the plan it belongs to (always 0 on a single-plan Machine). It
// is also the engine's own wake record, so PushBlock returns the engine's
// scratch as is.
type BlockWake struct {
	Off int
	TaggedWake
}

// blockConsumer is a re-blocking stage: consumeBlock ingests a prefix of
// src up to (and including) the stage's next emission boundary, returning
// how many samples it consumed and the emission, if the boundary was
// reached. The caller loops until src is drained, cascading each emission
// before feeding more — preserving the per-sample delivery order exactly.
type blockConsumer interface {
	consumeBlock(src []float64) (n int, out Value, ok bool)
}

// blockMapper is a dense scalar stage: pushBlock maps src through the
// stage, returning the emissions and the count of leading src samples that
// produced none (priming). The dense-suffix invariant — out[j] corresponds
// 1:1 to src[skip+j] — is what lets offsets and sequence numbers propagate
// through mapper chains without per-sample bookkeeping. The returned slice
// is instance-owned scratch, valid until the stage's next pushBlock.
type blockMapper interface {
	pushBlock(src []float64) (out []float64, skip int)
}

// PushBlock feeds a whole block of raw samples from one channel and
// returns the wakes it produced, ordered exactly as the equivalent
// PushSample loop would produce them; Off reports each wake's position
// within the block. The returned slice is machine-owned scratch, valid
// until the next push.
func (m *Machine) PushBlock(ch core.SensorChannel, samples []float64) []BlockWake {
	m.pushBlock(ch, samples)
	return m.wakes
}

// Run is the hub pump every trace replay shares: it pushes samples
// [from, to) of each channel in chs through PushBlock, one channel after
// another (data[i] holds the whole trace of chs[i]), and hands each wake to
// wake with the trace sample that fired it. Wakes come in sample order
// within a channel, not across channels.
func (e *engine) Run(chs []core.SensorChannel, data [][]float64, from, to int, wake func(at int, w TaggedWake)) {
	for i, ch := range chs {
		e.pushBlock(ch, data[i][from:to])
		for _, w := range e.wakes {
			wake(from+w.Off, w.TaggedWake)
		}
	}
}

// pushBlock feeds a block of raw samples into the graph, leaving its wakes
// in e.wakes ordered by (offset, output).
func (e *engine) pushBlock(ch core.SensorChannel, samples []float64) {
	e.wakes = e.wakes[:0]
	if len(samples) == 0 {
		return
	}
	if e.prec == Q15 {
		samples = e.quantize(samples)
	}
	seq0 := e.chanSeq[ch]
	e.chanSeq[ch] = seq0 + int64(len(samples))
	e.base = seq0
	for _, tg := range e.byChan[ch] {
		e.deliverBlock(tg, samples, seq0, 0)
	}
	// With several targets on the channel, each target's wakes come out
	// batched; sorting by offset restores the per-sample interleaving.
	// Wakes are rare, so this is a no-op almost always.
	e.sortWakes()
}

// quantize rounds a block onto the Q15 grid in engine-owned scratch
// (sensor ingress conversion; the caller's slice is never mutated).
func (e *engine) quantize(samples []float64) []float64 {
	if cap(e.qbuf) < len(samples) {
		e.qbuf = make([]float64, len(samples))
	}
	q := e.qbuf[:len(samples)]
	for i, x := range samples {
		q[i] = dsp.QuantizeQ15(x)
	}
	return q
}

// deliverBlock pushes a block into one node port. src holds the values for
// offsets [off0, off0+len(src)) with sequence numbers starting at seq0.
func (e *engine) deliverBlock(tg target, src []float64, seq0 int64, off0 int) {
	n := &e.nodes[tg.node]
	switch inst := n.inst.(type) {
	case blockConsumer:
		base := 0
		for base < len(src) {
			k, out, ok := inst.consumeBlock(src[base:])
			e.work = e.work.Add(n.cost.Scale(float64(k)))
			if e.stageStats != nil {
				var em int64
				if ok {
					em = 1
				}
				e.stageStats[tg.node].RecordBlock(n.cost.FloatOps, n.cost.IntOps, int64(k), em)
			}
			base += k
			if !ok {
				continue
			}
			e.off = off0 + base - 1
			e.appendWakes(n, out)
			for _, next := range n.fanout {
				e.deliver(next, out)
			}
		}
	case blockMapper:
		out, skip := inst.pushBlock(src)
		e.work = e.work.Add(n.cost.Scale(float64(len(src))))
		if e.stageStats != nil {
			e.stageStats[tg.node].RecordBlock(n.cost.FloatOps, n.cost.IntOps, int64(len(src)), int64(len(out)))
		}
		if len(out) == 0 {
			return
		}
		if len(n.outs) > 0 {
			for j, y := range out {
				e.off = off0 + skip + j
				e.appendWakes(n, Value{Seq: seq0 + int64(skip+j), Scalar: y})
			}
		}
		for _, next := range n.fanout {
			e.deliverBlock(next, out, seq0+int64(skip), off0+skip)
		}
	default:
		for i, x := range src {
			e.off = off0 + i
			e.deliver(tg, Value{Seq: seq0 + int64(i), Scalar: x})
		}
	}
}
