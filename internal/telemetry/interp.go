package telemetry

import "sort"

// StageStat accumulates the execution of one pipeline-stage kind inside an
// interpreter: how often it ran, the abstract work it performed (catalog
// float/int operation units), and how often it emitted a value downstream.
// Fields are plain — an interpreter machine is single-goroutine, and the
// parallel evaluation pool gives each cell its own profile — so recording
// is a handful of adds: no locks, no allocation, nothing on the hot path
// beyond the arithmetic.
type StageStat struct {
	Kind        string
	Invocations int64
	Emissions   int64
	FloatOps    float64
	IntOps      float64
}

// Record accounts one node execution. No-op on a nil stat, so machines can
// keep a nil-filled handle table when telemetry is disabled.
func (s *StageStat) Record(floatOps, intOps float64, emitted bool) {
	if s == nil {
		return
	}
	s.Invocations++
	s.FloatOps += floatOps
	s.IntOps += intOps
	if emitted {
		s.Emissions++
	}
}

// RecordBlock accounts n node executions with emitted emissions in one
// call — the block-dispatch path's batched equivalent of n Record calls.
// Per-execution costs in this codebase are integer- or dyadic-valued, so
// the batched float accumulation is bit-identical to n sequential adds.
// No-op on a nil stat.
func (s *StageStat) RecordBlock(floatOps, intOps float64, n, emitted int64) {
	if s == nil {
		return
	}
	s.Invocations += n
	s.FloatOps += floatOps * float64(n)
	s.IntOps += intOps * float64(n)
	s.Emissions += emitted
}

// InterpProfile is a per-machine table of stage statistics keyed by stage
// kind. A machine interns one *StageStat per node at attach time and
// afterwards records through the pre-resolved handles. Nil-safe: a nil
// profile interns nil handles.
type InterpProfile struct {
	byKind map[string]*StageStat
	order  []*StageStat
}

// NewInterpProfile returns an empty profile.
func NewInterpProfile() *InterpProfile {
	return &InterpProfile{byKind: make(map[string]*StageStat)}
}

// Stage returns the stat handle for a stage kind, creating it on first
// use. Nil-safe: a nil profile returns a nil handle.
func (p *InterpProfile) Stage(kind string) *StageStat {
	if p == nil {
		return nil
	}
	if s, ok := p.byKind[kind]; ok {
		return s
	}
	s := &StageStat{Kind: kind}
	p.byKind[kind] = s
	p.order = append(p.order, s)
	return s
}

// Stages returns every stat sorted by kind (nil on a nil profile).
func (p *InterpProfile) Stages() []*StageStat {
	if p == nil {
		return nil
	}
	out := append([]*StageStat(nil), p.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// TotalOps sums the recorded work across all stages.
func (p *InterpProfile) TotalOps() (floatOps, intOps float64) {
	if p == nil {
		return 0, 0
	}
	for _, s := range p.order {
		floatOps += s.FloatOps
		intOps += s.IntOps
	}
	return floatOps, intOps
}

// DepositCycles converts the profile's per-stage work into device cycles
// with the hub device's conversion (hub.Device.Cycles) and attributes them
// to the ledger. No-op when either side is nil.
func (p *InterpProfile) DepositCycles(l *Ledger, cycles func(floatOps, intOps float64) float64) {
	if p == nil || l == nil {
		return
	}
	for _, s := range p.order {
		l.AddStageCycles(s.Kind, cycles(s.FloatOps, s.IntOps))
	}
}
