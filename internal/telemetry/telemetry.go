// Package telemetry is the runtime observability layer: a zero-allocation
// metrics registry, an energy ledger that attributes every simulated
// millijoule to a component and every hub cycle to a pipeline stage, and a
// structured event tracer that exports Chrome trace_event JSON loadable in
// Perfetto or chrome://tracing.
//
// Every sink is strictly opt-in. Instrumented components hold handles
// (*Counter, *Gauge, *Histogram, *Stream, *Ledger) that are nil when
// telemetry is disabled, and every handle method is nil-safe: a nil
// receiver is a no-op. Call sites therefore stay branch-cheap and
// allocation-free on hot paths — the paper's interpreter inner loop keeps
// its 0 allocs/op contract whether or not it is instrumented.
//
// Handles are pre-interned: components resolve their counters and streams
// once at construction (Registry.Counter, Tracer.Stream) and afterwards
// touch only atomic words, so the registry is safe for concurrent use by
// the parallel evaluation pool.
package telemetry

// Set bundles the three telemetry sinks a component may be wired to. A nil
// *Set — or any nil field — disables the corresponding instrumentation;
// the zero value is a fully disabled set.
type Set struct {
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Ledger attributes simulated energy and hub cycles.
	Ledger *Ledger
	// Tracer records timestamped execution events.
	Tracer *Tracer
}

// Enabled reports whether any sink is attached.
func (s *Set) Enabled() bool {
	return s != nil && (s.Metrics != nil || s.Ledger != nil || s.Tracer != nil)
}

// Clock is a simulated-time source shared by the streams of one run. The
// driver (a simulation loop that knows the sample rate) advances it; every
// stream stamping an event reads it. One writer, many readers, all on the
// same goroutine — a run owns its clock.
type Clock struct {
	us float64 // microseconds since run start
}

// SetSec positions the clock at sec seconds since the run started.
func (c *Clock) SetSec(sec float64) {
	if c == nil {
		return
	}
	c.us = sec * 1e6
}

// NowUS returns the current time in microseconds (0 on a nil clock).
func (c *Clock) NowUS() float64 {
	if c == nil {
		return 0
	}
	return c.us
}

// NowSec returns the current time in seconds (0 on a nil clock).
func (c *Clock) NowSec() float64 { return c.NowUS() / 1e6 }

// Cell returns the sinks for one cell of a parallel fan-out: a fresh
// registry, ledger and tracer (each present only when s has one), so the
// cell's registration order, float sums and stream ids do not depend on
// the schedule. Merge folds it back into s; the zero Set stays disabled.
func (s *Set) Cell() Set {
	var c Set
	if s == nil {
		return c
	}
	if s.Metrics != nil {
		c.Metrics = NewRegistry()
	}
	if s.Ledger != nil {
		c.Ledger = NewLedger()
	}
	if t := s.Tracer; t != nil {
		t.mu.Lock()
		c.Tracer = &Tracer{max: t.max}
		t.mu.Unlock()
	}
	return c
}

// Merge folds a cell's sinks (see Cell) into s, prefixing label onto the
// cell's stream names. Merging the cells of a fan-out in cell order
// writes exactly what running them one after another on s would,
// provided each cell deposits each ledger component and stage kind at
// most once and records no gauge or histogram.
func (s *Set) Merge(label string, cell Set) {
	if s == nil {
		return
	}
	s.Metrics.Merge(cell.Metrics)
	s.Ledger.Merge(cell.Ledger)
	s.Tracer.Merge(label, cell.Tracer)
}
