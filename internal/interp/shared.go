package interp

import (
	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// This file implements the paper's §7 future-work extension: "When
// receiving multiple wake-up conditions, the sensor manager can attempt to
// improve performance by combining the pipelines that use common
// algorithms." A Merged machine runs the engine on a DAG-compiled shared
// plan (ir.CompilePlans), in which structurally identical subgraphs —
// shared prefixes, shared interior stages, whole duplicate pipelines —
// appear once and fan out to every consumer. Two applications windowing
// the microphone the same way share one windower; their divergent feature
// branches split after it.

// TaggedWake is a wake event attributed to one of the merged plans.
type TaggedWake struct {
	// Plan is the plan's index in the SharedPlan's Sources (and Outputs)
	// the machine was built from.
	Plan int
	WakeEvent
}

// Merged executes a set of plans as one shared graph.
type Merged struct {
	engine
	// events is the per-sample view of engine.wakes PushSample returns.
	events []TaggedWake
	// sharedNodes counts the plan nodes the compile pass eliminated
	// (shared, folded or fused away), for reporting.
	sharedNodes int
}

// NewShared builds a merged machine from a DAG-compiled shared plan: the
// compile pass has already deduplicated structurally identical subgraphs,
// folded redundant stages and fused threshold chains, so construction is a
// straight wiring of the lowered nodes. Each input plan's wakes are tagged
// with its index in sp.Sources.
func NewShared(prec Precision, sp *ir.SharedPlan) (*Merged, error) {
	m := &Merged{sharedNodes: sp.Stats.Eliminated()}
	if err := m.init(prec, sp.Plan, sp.Outputs); err != nil {
		return nil, err
	}
	return m, nil
}

// SharedNodes reports how many plan nodes the compile pass eliminated.
func (m *Merged) SharedNodes() int { return m.sharedNodes }

// PushSample feeds one raw sensor sample and returns the tagged wake
// events it produced, ordered by plan index. The returned slice is
// machine-owned scratch, valid until the next push.
func (m *Merged) PushSample(ch core.SensorChannel, sample float64) []TaggedWake {
	m.push(ch, sample)
	m.events = m.events[:0]
	for i := range m.wakes {
		m.events = append(m.events, m.wakes[i].TaggedWake)
	}
	return m.events
}

// PushBlock feeds a whole block of raw samples from one channel and
// returns the tagged wakes, ordered by (offset, plan) — exactly the
// concatenation order a PushSample loop would produce. The returned slice
// is machine-owned scratch, valid until the next push.
func (m *Merged) PushBlock(ch core.SensorChannel, samples []float64) []BlockWake {
	m.pushBlock(ch, samples)
	return m.wakes
}
