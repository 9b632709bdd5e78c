// Package interp implements the sensor-hub runtime (paper §3.5): an
// interpreter that executes a bound wake-up condition over streaming sensor
// data. It mirrors the paper's C implementation: every algorithm instance
// owns a per-instance data structure, the interpreter feeds incoming sensor
// samples to the appropriate instances, and an instance that produces a
// result sets a hasResult flag that forwards the value to the next
// instance. A value reaching OUT signals that the main processor should be
// woken up.
//
// The interpreter also meters the work it performs (in the abstract
// float/int operation units of the catalog cost model) so device models can
// translate executed work into energy and real-time feasibility.
package interp

import (
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/ir"
	"sidewinder/internal/telemetry"
)

// Value is one emission flowing over a pipeline edge: a scalar or a vector
// block, tagged with the emitting node's sequence number. Sequence numbers
// let aggregation algorithms synchronize branches without timestamps.
//
// Vector contents are owned by the emitting instance, which reuses the
// backing array across emissions: a Vector is valid only for the delivery
// cascade of the sample that produced it, and consumers must copy it to
// retain it (and must never mutate it).
type Value struct {
	Seq    int64
	Scalar float64
	Vector []float64 // nil for scalar edges
}

// WakeEvent is delivered when the wake-up condition is satisfied: the final
// admission-control stage emitted a value to OUT (paper §3.3).
type WakeEvent struct {
	// NodeID is the plan node that fed OUT.
	NodeID int
	// Value is the admitted scalar.
	Value float64
	// Seq is the emission sequence number of the final node.
	Seq int64
}

// instance is one running algorithm. Push consumes an input on the given
// port and reports the produced value, if any (the hasResult flag of the
// paper's runtime). The instance sets the output's Seq: sample-synchronous
// and conditional algorithms preserve the input sequence (so aggregators
// downstream can join branches emission-for-emission), while re-blocking
// algorithms (windowing, block filters) start a fresh sequence domain.
type instance interface {
	Push(port int, v Value) (Value, bool)
	Reset()
}

// target routes an emission to one input port of a downstream node.
type target struct {
	node int // index into engine.nodes
	port int
}

// node is one algorithm instance in the engine's node table.
type node struct {
	inst instance
	cost core.CostEstimate
	// kind is the algorithm kind, kept for per-stage telemetry.
	kind core.AlgorithmKind
	// id is the node's plan ID, reported in wake events.
	id int
	// join is inst when it is a branch join, which the engine feeds with
	// arrival positions; nil otherwise.
	join *joinInst
	// outs lists the outputs this node feeds OUT for, as indices into the
	// output list the engine was built with.
	outs []int
	// fanout routes emissions to downstream nodes.
	fanout []target
}

// engine is the interpreter proper: one node table executing a plan whose
// outputs may be any number of its nodes. Machine runs it on a
// single-pipeline plan with one output; Merged runs it on a DAG-compiled
// shared plan with one output per resident application. Both are thin
// facades: PushBlock returns the engine's wake records as they are, and
// PushSample reshapes them into the per-sample event type.
type engine struct {
	nodes   []node
	byChan  map[core.SensorChannel][]target
	chanSeq map[core.SensorChannel]int64
	prec    Precision
	work    core.CostEstimate

	// off is the offset (within the block being pushed) of the raw sample
	// whose delivery cascade is currently running; wakes record it so the
	// block path can report when within the block each wake fired. The
	// per-sample path runs with off pinned to 0. base is the channel
	// sequence number of the block's first sample, so base+off is the raw
	// sample position joins compare arrivals by: channels pushed over the
	// same samples share positions.
	off   int
	base  int64
	wakes []BlockWake
	// qbuf is the Q15 ingress scratch: PushBlock quantizes into it rather
	// than mutating the caller's samples.
	qbuf []float64

	// stageStats, when non-nil, holds one pre-interned telemetry handle
	// per node (parallel to nodes), so the delivery loop attributes work
	// per stage kind with plain field arithmetic — no map lookups, no
	// allocation, nothing when telemetry is disabled. Work on a shared
	// node is recorded once: the profile sees the deduplicated execution
	// the hub actually pays for.
	stageStats []*telemetry.StageStat
}

// init wires the engine over the plan's nodes. Plan node IDs must be 1..n
// in topological order, so every input references an already wired node;
// outs[i].Out is the ID of the node feeding OUT for output i.
func (e *engine) init(prec Precision, plan *core.Plan, outs []ir.AppOut) error {
	if len(outs) == 0 {
		return fmt.Errorf("interp: plan %q has no output", plan.Name)
	}
	e.nodes = make([]node, len(plan.Nodes))
	e.byChan = make(map[core.SensorChannel][]target)
	e.chanSeq = make(map[core.SensorChannel]int64)
	e.prec = prec
	for i := range plan.Nodes {
		n := &plan.Nodes[i]
		inst, err := newInstance(n, prec)
		if err != nil {
			return fmt.Errorf("interp: node %d (%s): %w", n.ID, n.Kind, err)
		}
		join, _ := inst.(*joinInst)
		e.nodes[i] = node{inst: inst, join: join, cost: n.Cost, kind: n.Kind, id: n.ID}
		for port, ref := range n.Inputs {
			tg := target{node: i, port: port}
			if ref.FromChannel() {
				e.byChan[ref.Channel] = append(e.byChan[ref.Channel], tg)
			} else {
				e.nodes[ref.Node-1].fanout = append(e.nodes[ref.Node-1].fanout, tg)
			}
		}
	}
	for i, o := range outs {
		e.nodes[o.Out-1].outs = append(e.nodes[o.Out-1].outs, i)
	}
	return nil
}

// SetProfile attaches a telemetry profile: subsequent execution is
// attributed per stage kind into the profile's StageStats. The handles are
// interned once here, keeping the push paths at 0 allocs/op. A nil profile
// detaches instrumentation.
func (e *engine) SetProfile(p *telemetry.InterpProfile) {
	if p == nil {
		e.stageStats = nil
		return
	}
	e.stageStats = make([]*telemetry.StageStat, len(e.nodes))
	for i := range e.nodes {
		e.stageStats[i] = p.Stage(string(e.nodes[i].kind))
	}
}

// push feeds one raw sensor sample into the graph, leaving its wakes in
// e.wakes ordered by output index.
func (e *engine) push(ch core.SensorChannel, sample float64) {
	e.wakes = e.wakes[:0]
	e.off = 0
	if e.prec == Q15 {
		sample = dsp.QuantizeQ15(sample)
	}
	seq := e.chanSeq[ch]
	e.chanSeq[ch] = seq + 1
	e.base = seq
	v := Value{Seq: seq, Scalar: sample}
	for _, tg := range e.byChan[ch] {
		e.deliver(tg, v)
	}
	e.sortWakes()
}

// sortWakes orders the recorded wakes by (offset, output) — the order a
// per-sample loop over the outputs would report them in. Pushes produce
// zero or one wake almost always; a stable insertion sort keeps the hot
// path free of the reflection allocations sort.Slice would make.
func (e *engine) sortWakes() {
	w := e.wakes
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && wakeLess(w[j], w[j-1]); j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
}

func wakeLess(a, b BlockWake) bool {
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.Plan < b.Plan
}

// deliver pushes a value into one node port and propagates any emission.
// A completed join's emission propagates at the offset of the join's
// latest arrival, the sample a per-sample feed would have completed it at.
func (e *engine) deliver(tg target, v Value) {
	n := &e.nodes[tg.node]
	e.work = e.work.Add(n.cost)
	off := e.off
	var out Value
	var ok bool
	if n.join != nil {
		var at int64
		out, at, ok = n.join.pushAt(tg.port, v, e.base+int64(off))
		if ok {
			e.off = int(at - e.base)
		}
	} else {
		out, ok = n.inst.Push(tg.port, v)
	}
	if e.stageStats != nil {
		e.stageStats[tg.node].Record(n.cost.FloatOps, n.cost.IntOps, ok)
	}
	if ok {
		e.appendWakes(n, out)
		for _, next := range n.fanout {
			e.deliver(next, out)
		}
	}
	e.off = off
}

// appendWakes records the node's wakes (one per output it feeds OUT for)
// at the current block offset, snapping the admitted value onto the Q15
// grid in fixed-point mode (wake egress conversion: downstream consumers
// see what the MCU would report).
func (e *engine) appendWakes(n *node, out Value) {
	if len(n.outs) == 0 {
		return
	}
	val := out.Scalar
	if e.prec == Q15 {
		val = dsp.QuantizeQ15(val)
	}
	for _, o := range n.outs {
		e.wakes = append(e.wakes, BlockWake{
			Off: e.off,
			TaggedWake: TaggedWake{
				Plan:      o,
				WakeEvent: WakeEvent{NodeID: n.id, Value: val, Seq: out.Seq},
			},
		})
	}
}

// Work returns the cumulative work executed since construction, in catalog
// cost units.
func (e *engine) Work() core.CostEstimate { return e.work }

// Reset restores every algorithm instance to its initial state and clears
// sequence counters; the work meter is left untouched.
func (e *engine) Reset() {
	for i := range e.nodes {
		e.nodes[i].inst.Reset()
	}
	for ch := range e.chanSeq {
		delete(e.chanSeq, ch)
	}
}

// Machine executes one bound wake-up condition.
type Machine struct {
	engine
	// events is the per-sample view of engine.wakes PushSample returns.
	events []WakeEvent
}

// New builds a machine for the plan in the default float64 precision. The
// plan must come from core.Pipeline.Validate or ir.Bind; New trusts its
// structural invariants but still fails cleanly on an algorithm kind it
// cannot instantiate.
func New(plan *core.Plan) (*Machine, error) { return NewPrecision(plan, Float64) }

// NewPrecision builds a machine executing in the given precision. The plan
// runs exactly as given, with its last node feeding OUT.
func NewPrecision(plan *core.Plan, prec Precision) (*Machine, error) {
	m := &Machine{}
	if err := m.init(prec, plan, []ir.AppOut{{Name: plan.Name, Out: plan.OutputNode()}}); err != nil {
		return nil, err
	}
	return m, nil
}

// PushSample feeds one raw sensor sample into the condition and returns
// any wake events it produced. The returned slice is machine-owned
// scratch, valid until the next push.
func (m *Machine) PushSample(ch core.SensorChannel, sample float64) []WakeEvent {
	m.push(ch, sample)
	m.events = m.events[:0]
	for i := range m.wakes {
		m.events = append(m.events, m.wakes[i].WakeEvent)
	}
	return m.events
}
