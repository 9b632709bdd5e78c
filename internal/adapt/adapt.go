// Package adapt closes the sensing feedback loop (ROADMAP item 1): a
// deterministic policy engine that consumes false-wake / missed-wake
// verdicts from the application layer and emits bounded
// re-parameterizations of a resident wake-up condition — sampling-rate
// decimation, window stretch, threshold strictness, and Q15/float64
// precision demotion. It is the repo's one feedback loop: the paper's §7
// false-positive tuning rule is the engine's threshold axis, and a
// one-rung config (MaxDecimation 1, AllowQ15 false) runs that rule alone.
//
// The design follows AdaSense (PAPERS.md): recognition feedback drives
// runtime re-selection of sensing parameters, recovering energy headroom
// no static configuration can reach, while a configured missed-wake bound
// keeps recall from being traded away wholesale. Stanley-Marbell &
// Rinard's adaptive-approximation platform motivates precision as a
// first-class axis: the Q15 substrate already exists (internal/interp),
// so demotion is a re-compile, not a new kernel.
//
// Everything is deterministic: no clocks, no randomness — the same signal
// sequence always yields the same knob trajectory, which is what lets the
// evaluation harness stay byte-identical at any worker count.
//
// The engine only proposes; it never applies. Callers (internal/manager
// in the live stack, internal/sim in the simulator) must re-resolve the
// proposal through Reparameterize, re-check admission against the
// device's cycle/RAM budget (sched.Update, or hub.Device.Fits over
// Demand), and call Veto
// to clamp the engine when the proposal does not fit. That contract —
// adaptation can never exceed the budget a fresh push would be held to —
// is what the budget-invariance property tests pin.
package adapt

import (
	"fmt"
	"math"

	"sidewinder/internal/interp"
)

// Signal is one application-layer verdict about the condition's behavior.
type Signal int

const (
	// TrueWake: the hub woke the phone and the application confirmed a
	// real event.
	TrueWake Signal = iota
	// FalseWake: the hub woke the phone for nothing (paper §7's false
	// positive report).
	FalseWake
	// MissedWake: an event of interest passed without a wake — observable
	// only by the application layer (ground truth, user annotation, a
	// heavier classifier), never by the hub itself.
	MissedWake
)

// String returns the signal's report name.
func (s Signal) String() string {
	switch s {
	case TrueWake:
		return "true-wake"
	case FalseWake:
		return "false-wake"
	case MissedWake:
		return "missed-wake"
	default:
		return fmt.Sprintf("Signal(%d)", int(s))
	}
}

// Knobs is one bounded re-parameterization of a resident condition.
type Knobs struct {
	// Decimation keeps every k-th input sample (1 = all samples).
	Decimation int
	// WindowScale multiplies window size and step (1 = as authored).
	// Stretching restores a decimated window's wall-clock span.
	WindowScale float64
	// ThresholdFactor is the final admission stage's strictness in
	// [1, Config.ThresholdMax]; 1 is the developer's original threshold.
	ThresholdFactor float64
	// Precision selects the execution substrate.
	Precision interp.Precision
}

// Config bounds the policy. The zero value is invalid; use DefaultConfig
// (possibly modified) so every bound is explicit.
type Config struct {
	// MaxDecimation caps the decimation factor the ladder may reach.
	MaxDecimation int
	// MaxWindowScale caps window stretching.
	MaxWindowScale float64
	// ThresholdMax bounds threshold tightening: the hub cannot see the
	// false negatives that over-tightening would cause.
	ThresholdMax float64
	// AllowQ15 permits precision demotion to fixed point.
	AllowQ15 bool
	// Patience is the number of consecutive clean true wakes required
	// before the engine escalates one rung down the energy ladder.
	Patience int
	// Cooldown is the number of true wakes after a missed wake during
	// which escalation is suspended.
	Cooldown int
	// MissedWakeBound is the highest tolerated missed-wake fraction
	// (missed / (missed + true)); while the observed rate exceeds it the
	// engine refuses to escalate.
	MissedWakeBound float64
}

// DefaultConfig returns the policy bounds used by the evaluation sweep.
func DefaultConfig() Config {
	return Config{
		MaxDecimation:   4,
		MaxWindowScale:  2,
		ThresholdMax:    1.5,
		AllowQ15:        true,
		Patience:        8,
		Cooldown:        16,
		MissedWakeBound: 0.1,
	}
}

// Threshold AIMD constants: ×1.05 strictness per false wake, ×0.97
// relaxation per true wake (floored at the developer's threshold).
const (
	thresholdUp   = 1.05
	thresholdDown = 0.97
)

// Stats is a snapshot of the engine's history.
type Stats struct {
	TrueWakes, FalseWakes, MissedWakes int
	Rung, MaxRung                      int
	Vetoes                             int
	Changes                            int // knob transitions proposed
}

// Engine is the per-condition policy state machine. It walks a fixed
// "energy ladder" of knob presets — baseline, precision demotion, then
// increasing decimation with compensating window stretch — escalating one
// rung after Patience consecutive clean true wakes and falling back to
// baseline on any missed wake. Orthogonally it runs the AIMD threshold
// strictness loop on false/true wakes. Not safe for concurrent use; wrap
// externally if shared.
type Engine struct {
	cfg    Config
	ladder []Knobs

	rung    int
	maxRung int // highest admissible rung (Veto lowers it)
	factor  float64

	streak   int // consecutive clean true wakes
	cooldown int

	stats Stats
	dirty bool
}

// NewEngine builds an engine with the given bounds. Invalid bounds are
// clamped to the nearest sane value rather than rejected, so a partially
// filled Config degrades to a more conservative policy.
func NewEngine(cfg Config) *Engine {
	if cfg.MaxDecimation < 1 {
		cfg.MaxDecimation = 1
	}
	if cfg.MaxWindowScale < 1 {
		cfg.MaxWindowScale = 1
	}
	if cfg.ThresholdMax < 1 {
		cfg.ThresholdMax = 1
	}
	if cfg.Patience < 1 {
		cfg.Patience = 1
	}
	if cfg.Cooldown < 0 {
		cfg.Cooldown = 0
	}
	if cfg.MissedWakeBound < 0 {
		cfg.MissedWakeBound = 0
	}
	e := &Engine{cfg: cfg, ladder: buildLadder(cfg), factor: 1}
	e.maxRung = len(e.ladder) - 1
	return e
}

// buildLadder lays out the knob presets from cheapest intervention to
// deepest: demote precision first (free accuracy-wise on these pipelines,
// large cycle win on FPU-less parts), then decimate, stretching windows
// along with deeper decimation so their wall-clock span recovers.
func buildLadder(cfg Config) []Knobs {
	prec := interp.Float64
	ladder := []Knobs{{Decimation: 1, WindowScale: 1, Precision: prec}}
	if cfg.AllowQ15 {
		prec = interp.Q15
		ladder = append(ladder, Knobs{Decimation: 1, WindowScale: 1, Precision: prec})
	}
	for d := 2; d <= cfg.MaxDecimation; d *= 2 {
		scale := math.Min(float64(d), cfg.MaxWindowScale)
		ladder = append(ladder, Knobs{Decimation: d, WindowScale: scale, Precision: prec})
	}
	return ladder
}

// Ladder returns a copy of the engine's knob presets, baseline first.
// ThresholdFactor is zero in the presets; the live factor is orthogonal.
func (e *Engine) Ladder() []Knobs { return append([]Knobs(nil), e.ladder...) }

// Knobs returns the engine's current proposal.
func (e *Engine) Knobs() Knobs {
	k := e.ladder[e.rung]
	k.ThresholdFactor = e.factor
	return k
}

// Observe feeds one verdict into the policy.
func (e *Engine) Observe(sig Signal) {
	switch sig {
	case TrueWake:
		e.stats.TrueWakes++
		e.setFactor(math.Max(e.factor*thresholdDown, 1))
		if e.cooldown > 0 {
			e.cooldown--
			return
		}
		e.streak++
		if e.streak >= e.cfg.Patience && e.rung < e.maxRung && e.missedRate() <= e.cfg.MissedWakeBound {
			e.rung++
			e.streak = 0
			e.markChange()
		}
	case FalseWake:
		e.stats.FalseWakes++
		e.streak = 0
		e.setFactor(math.Min(e.factor*thresholdUp, e.cfg.ThresholdMax))
	case MissedWake:
		e.stats.MissedWakes++
		e.streak = 0
		e.cooldown = e.cfg.Cooldown
		if e.rung != 0 {
			e.rung = 0
			e.markChange()
		}
		// A miss means the condition is too blunt, not too lax: undo any
		// strictness the false-wake loop accumulated.
		e.setFactor(1)
	}
}

// Veto reports that the current proposal failed re-admission (budget or
// compile). The offending rung and everything past it become off-limits,
// and the engine falls back one rung. Rung 0 is the pushed configuration,
// which was admitted, so it can never be vetoed away.
func (e *Engine) Veto() {
	e.stats.Vetoes++
	if e.rung > 0 {
		e.maxRung = e.rung - 1
		e.rung = e.maxRung
		e.markChange()
	} else {
		e.maxRung = 0
	}
}

// TakeDirty reports whether the proposal changed since the last call and
// clears the flag — the caller's cue to re-parameterize and re-admit.
func (e *Engine) TakeDirty() bool {
	d := e.dirty
	e.dirty = false
	return d
}

// Stats returns a snapshot of the engine's history.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Rung, s.MaxRung = e.rung, e.maxRung
	return s
}

// MissedRate returns the observed missed-wake fraction.
func (e *Engine) MissedRate() float64 { return e.missedRate() }

func (e *Engine) missedRate() float64 {
	total := e.stats.MissedWakes + e.stats.TrueWakes
	if total == 0 {
		return 0
	}
	return float64(e.stats.MissedWakes) / float64(total)
}

func (e *Engine) setFactor(f float64) {
	if f != e.factor {
		e.factor = f
		e.markChange()
	}
}

func (e *Engine) markChange() {
	e.stats.Changes++
	e.dirty = true
}
