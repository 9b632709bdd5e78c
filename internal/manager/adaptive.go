package manager

import (
	"fmt"

	"sidewinder/internal/adapt"
	"sidewinder/internal/core"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
)

// This file wires the adaptive policy engine (package adapt) into the
// sensor manager, closing the feedback loop end to end:
//
//	Feedback/ReportMissedWake -> engine.Observe -> Reparameterize ->
//	MsgConfigPush update -> hub in-place rebuild
//
// It is the only feedback loop. The paper's §7 "smartness" extension —
// "given feedback from the more complex algorithms running on the
// application level, self-learning mechanisms may be able to tune the
// parameters used on the wake-up conditions" — is the engine's AIMD
// threshold axis: a condition never put under EnableAdaptive gets a
// threshold-only engine on its first Feedback verdict, and the tightened
// program reaches the hub like any other adaptation. The hub runs every
// program exactly as pushed.
//
// The policy lives on the phone, not the hub: the phone sees the missed
// wakes the hub cannot, and keeping st.irText current means post-crash
// re-provisioning pushes the *adapted* program — adaptation survives hub
// reboots with no extra protocol.
//
// Re-admission contract: the hub is the only admission controller, so an
// adaptation is applied only if the hub's rebuild accepts the mutated
// program. A rejection (MsgConfigError) rolls the condition back to its
// last good program and clamps the engine (Veto) so the offending rung is
// never proposed again.

// adaptState is one condition under adaptive management.
type adaptState struct {
	engine *adapt.Engine
	base   *core.Plan // the developer's plan, the reparameterization root

	applied     *core.Plan // last program the hub confirmed (nil = base)
	appliedText string
	pending     *core.Plan // update pushed but not yet acked
	pendingText string
}

// settleAck records a confirmed adaptive update.
func (as *adaptState) settleAck() {
	if as.pending != nil {
		as.applied, as.appliedText = as.pending, as.pendingText
		as.pending, as.pendingText = nil, ""
	}
}

// EnableAdaptive puts a previously pushed condition under adaptive
// management with the given policy bounds, so Feedback and
// ReportMissedWake verdicts walk the full ladder. The condition must have
// settled (acked by the hub).
//
// The engine always starts fresh from the developer's plan. A condition
// that plain Feedback verdicts had already tightened does not carry that
// factor over: its fresh proposal (factor 1) is pushed when it differs
// from the running program, so the hub runs exactly what the new engine
// proposes.
func (m *Manager) EnableAdaptive(id uint16, cfg adapt.Config) error {
	st, ok := m.pushes[id]
	if !ok {
		return fmt.Errorf("manager: unknown condition %d", id)
	}
	if !st.acked || st.err != nil {
		return fmt.Errorf("manager: condition %d has not settled; enable adaptation after the push is acked", id)
	}
	restart := m.adaptive[id] != nil
	as, err := m.startEngine(id, st, cfg)
	if err != nil || !restart {
		return err
	}
	return m.pushProposal(id, st, as)
}

// thresholdOnly is the policy a plain Feedback verdict starts: the default
// bounds on a one-rung ladder (no decimation, no Q15 demotion), so only
// the AIMD threshold axis moves — the paper's §7 tuning rule.
func thresholdOnly() adapt.Config {
	cfg := adapt.DefaultConfig()
	cfg.MaxDecimation = 1
	cfg.AllowQ15 = false
	return cfg
}

// startEngine installs a fresh policy engine on a settled condition. The
// reparameterization root is the developer's plan: bound from the pushed
// program the first time, kept across a restart.
func (m *Manager) startEngine(id uint16, st *pushState, cfg adapt.Config) (*adaptState, error) {
	as := m.adaptive[id]
	if as == nil {
		base, err := ir.ParseAndBind(st.irText, m.cat)
		if err != nil {
			return nil, fmt.Errorf("manager: condition %d: cannot rebind pushed program: %w", id, err)
		}
		as = &adaptState{base: base, applied: base, appliedText: st.irText}
		m.adaptive[id] = as
	}
	as.engine = adapt.NewEngine(cfg)
	return as, nil
}

// Feedback reports a wake-up verdict (paper §7): falsePositive true means
// the main-CPU classifier found no event of interest in the delivered
// data. The verdict feeds the condition's policy engine, starting a
// threshold-only one if the condition has none, and any resulting
// program change goes to the hub as a reliable in-place update. A verdict
// for a push the hub has not acked, or rejected, is accepted and dropped:
// there is no settled hub program to tune.
func (m *Manager) Feedback(id uint16, falsePositive bool) error {
	st, ok := m.pushes[id]
	if !ok {
		return fmt.Errorf("manager: unknown condition %d", id)
	}
	as := m.adaptive[id]
	if as == nil {
		if !st.acked || st.err != nil {
			return nil
		}
		var err error
		if as, err = m.startEngine(id, st, thresholdOnly()); err != nil {
			return err
		}
	}
	sig := adapt.TrueWake
	if falsePositive {
		sig = adapt.FalseWake
	}
	as.engine.Observe(sig)
	return m.applyAdaptation(id, st, as)
}

// AdaptiveKnobs returns the engine's current proposal for a condition.
func (m *Manager) AdaptiveKnobs(id uint16) (adapt.Knobs, bool) {
	as := m.adaptive[id]
	if as == nil {
		return adapt.Knobs{}, false
	}
	return as.engine.Knobs(), true
}

// ReportMissedWake reports that an event of interest passed without a
// wake — the signal only the application layer can observe (ground truth,
// user annotation, a heavier duty-cycled classifier). For a condition
// with a policy engine it drives the policy toward its baseline
// configuration (undoing any threshold tightening); for any other known
// condition it is accepted and dropped.
func (m *Manager) ReportMissedWake(id uint16) error {
	st, ok := m.pushes[id]
	if !ok {
		return fmt.Errorf("manager: unknown condition %d", id)
	}
	as := m.adaptive[id]
	if as == nil {
		return nil
	}
	as.engine.Observe(adapt.MissedWake)
	return m.applyAdaptation(id, st, as)
}

// applyAdaptation turns a dirty engine proposal into a hub update. Called
// after every Observe; a clean engine is a no-op.
func (m *Manager) applyAdaptation(id uint16, st *pushState, as *adaptState) error {
	if !as.engine.TakeDirty() {
		return nil
	}
	return m.pushProposal(id, st, as)
}

// pushProposal makes the hub run the engine's current proposal: mutate
// the base plan and push the new program unless it is already the one
// running. The hub re-admits it by rebuilding its set.
func (m *Manager) pushProposal(id uint16, st *pushState, as *adaptState) error {
	knobs := as.engine.Knobs()
	plan, err := adapt.Reparameterize(m.cat, as.base, knobs)
	if err != nil {
		// A proposal the catalog itself rejects (e.g. a scaled window
		// collapsing) is a bad rung, not a broken manager: clamp and
		// retry with the fallback proposal (bounded by the ladder).
		as.engine.Veto()
		return m.applyAdaptation(id, st, as)
	}
	irText := compileIR(plan)
	if irText == st.irText {
		// Knob change with no program-level effect (e.g. a precision
		// proposal: the IR carries no precision, the hub executes its
		// native substrate). Nothing to push.
		as.applied, as.appliedText = plan, irText
		return nil
	}
	st.irText = irText // crash re-provisioning now re-pushes the adapted program
	st.acked = false
	st.err = nil
	as.pending, as.pendingText = plan, irText
	m.trace.Instant2("adapt.update", "phone", "cond", float64(id), "rung", float64(as.engine.Stats().Rung))
	return m.ep.Send(link.Frame{Type: link.MsgConfigPush, Payload: encodeConfigPush(id, irText)})
}

// rollbackAdaptation undoes a rejected adaptive update: the hub kept its
// previous program, so the manager's view returns to the last good plan
// and the engine is clamped.
func (m *Manager) rollbackAdaptation(id uint16, st *pushState, as *adaptState) {
	st.irText = as.appliedText
	st.err = nil
	as.pending, as.pendingText = nil, ""
	as.engine.Veto()
}
