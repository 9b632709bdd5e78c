package manager

import (
	"strings"
	"testing"

	"sidewinder/internal/adapt"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/resilience"
)

// bigWindow is a single-channel condition whose window state dominates its
// RAM footprint: at size 2500 it fits the MSP430 (4·2500+64 ≈ 10 KB of
// 16 KB), but the adaptive d=2/w=2 rung doubles the window and overflows
// it — the shape that exercises re-admission vetoes and hub-side update
// rejection.
func bigWindow(size int) *core.Pipeline {
	p := core.NewPipeline("big-window")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(size, size/2, "rectangular")).
		Add(core.Stat("stddev")).
		Add(core.MinThreshold(5)))
	return p
}

// hubText returns the program text the hub is actually running for a
// condition — the ground truth the manager's view must track.
func hubText(t *testing.T, tb *Testbed, id uint16) string {
	t.Helper()
	c := tb.Hub.conds[id]
	if c == nil {
		t.Fatalf("condition %d not loaded on hub", id)
	}
	return c.pushText
}

// managerText returns the manager's record of a condition's program — what
// crash re-provisioning would push.
func managerText(t *testing.T, tb *Testbed, id uint16) string {
	t.Helper()
	st := tb.Manager.pushes[id]
	if st == nil {
		t.Fatalf("condition %d unknown to manager", id)
	}
	return st.irText
}

// adaptivePlan returns the last hub-confirmed program of an adaptively
// managed condition.
func adaptivePlan(t *testing.T, tb *Testbed, id uint16) *core.Plan {
	t.Helper()
	as := tb.Manager.adaptive[id]
	if as == nil {
		t.Fatalf("condition %d has no policy engine", id)
	}
	return as.applied
}

// adaptiveStats returns the policy engine's history for a condition.
func adaptiveStats(t *testing.T, tb *Testbed, id uint16) adapt.Stats {
	t.Helper()
	as := tb.Manager.adaptive[id]
	if as == nil {
		t.Fatalf("condition %d has no policy engine", id)
	}
	return as.engine.Stats()
}

func TestEnableAdaptiveErrors(t *testing.T) {
	tb := newBed(t)
	if err := tb.EnableAdaptive(42, adapt.DefaultConfig()); err == nil {
		t.Error("enable on unknown condition must error")
	}
	// A push that has not settled (no pump, no ack yet) cannot be enabled:
	// the manager does not know what program the hub accepted.
	id, err := tb.Manager.Push(significantMotion(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableAdaptive(id, adapt.DefaultConfig()); err == nil {
		t.Error("enable before the push settled must error")
	}
	if err := tb.Pump(); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableAdaptive(id, adapt.DefaultConfig()); err != nil {
		t.Fatalf("enable after settling: %v", err)
	}
	if tb.Manager.adaptive[id] == nil {
		t.Error("no policy engine after enable")
	}
	// Remove forgets the adaptive state along with the push.
	if err := tb.Remove(id); err != nil {
		t.Fatal(err)
	}
	if tb.Manager.adaptive[id] != nil {
		t.Error("policy engine survived remove")
	}
}

// TestAdaptiveFalseWakeTightensHubProgram drives the AIMD threshold axis
// end to end: a false-wake verdict must re-parameterize the resident
// program (min threshold ×1.05) and push the update to the hub in place.
func TestAdaptiveFalseWakeTightensHubProgram(t *testing.T) {
	tb := newBed(t)
	var events []Event
	id, _, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	baseText := hubText(t, tb, id)
	if err := tb.EnableAdaptive(id, adapt.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	if err := tb.Feedback(id, true); err != nil { // false wake
		t.Fatal(err)
	}
	k, ok := tb.Manager.AdaptiveKnobs(id)
	if !ok || k.ThresholdFactor <= 1 || k.ThresholdFactor > 1.051 {
		t.Fatalf("threshold factor = %g, want ~1.05", k.ThresholdFactor)
	}
	got := hubText(t, tb, id)
	if got == baseText {
		t.Fatal("hub program unchanged after false-wake adaptation")
	}
	if got != managerText(t, tb, id) {
		t.Fatalf("hub and manager program diverged:\nhub: %s\nmanager: %s", got, managerText(t, tb, id))
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions after in-place update, want 1", tb.Hub.Loaded())
	}
	// The confirmed plan carries the tightened threshold: 15 × 1.05.
	plan := adaptivePlan(t, tb, id)
	final := plan.Nodes[len(plan.Nodes)-1]
	if min := final.Params.Float("min"); min < 15.7 || min > 15.8 {
		t.Errorf("final threshold = %g, want 15.75", min)
	}

	// A true wake decays the factor toward 1 and pushes again; the
	// tightened condition still fires on strong motion.
	if err := tb.Feedback(id, false); err != nil {
		t.Fatal(err)
	}
	k, _ = tb.Manager.AdaptiveKnobs(id)
	if k.ThresholdFactor >= 1.05 {
		t.Errorf("factor did not decay on true wake: %g", k.ThresholdFactor)
	}
	feedMotion(t, tb, 40)
	if len(events) == 0 {
		t.Error("tightened condition delivered no wakes on strong motion")
	}
}

// TestAdaptiveEscalationAndMissedWakeReset walks the energy ladder through
// the hub: Q15 demotion is a knob-only change (the IR carries no
// precision, nothing to push), the decimation rung rebuilds the resident
// program in place, and a missed wake resets the hub to the developer's
// original program with escalation suspended for the cooldown.
func TestAdaptiveEscalationAndMissedWakeReset(t *testing.T) {
	tb := newBed(t)
	var events []Event
	id, _, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	baseText := hubText(t, tb, id)
	cfg := adapt.DefaultConfig()
	cfg.Patience = 1
	cfg.Cooldown = 2
	if err := tb.EnableAdaptive(id, cfg); err != nil {
		t.Fatal(err)
	}

	// Rung 1: precision demotion. Same program text — no push.
	if err := tb.Feedback(id, false); err != nil {
		t.Fatal(err)
	}
	if k, _ := tb.Manager.AdaptiveKnobs(id); k.Precision != interp.Q15 || k.Decimation != 1 {
		t.Fatalf("rung 1 knobs = %+v, want Q15 at decimation 1", k)
	}
	if got := hubText(t, tb, id); got != baseText {
		t.Fatal("precision demotion must not change the hub program")
	}

	// Rung 2: decimation 2, window stretch 2. The hub rebuilds in place.
	if err := tb.Feedback(id, false); err != nil {
		t.Fatal(err)
	}
	got := hubText(t, tb, id)
	if !strings.Contains(got, "decimate") {
		t.Fatalf("hub program has no decimator after escalation:\n%s", got)
	}
	if got != managerText(t, tb, id) {
		t.Fatal("hub and manager program diverged after escalation")
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions, want 1", tb.Hub.Loaded())
	}
	if s := adaptiveStats(t, tb, id); s.Rung != 2 {
		t.Fatalf("rung = %d, want 2", s.Rung)
	}

	// The decimated condition still wakes the phone.
	feedMotion(t, tb, 40)
	if len(events) == 0 {
		t.Fatal("decimated condition delivered no wakes")
	}

	// A missed wake resets the hub to the original program.
	if err := tb.MissedWake(id); err != nil {
		t.Fatal(err)
	}
	if got := hubText(t, tb, id); got != baseText {
		t.Fatalf("hub not reset to base program after missed wake:\n%s", got)
	}
	s := adaptiveStats(t, tb, id)
	if s.Rung != 0 || s.MissedWakes != 1 {
		t.Fatalf("stats after miss = %+v, want rung 0, 1 miss", s)
	}
	// Cooldown suspends escalation: the next true wake must not climb.
	if err := tb.Feedback(id, false); err != nil {
		t.Fatal(err)
	}
	if got := hubText(t, tb, id); got != baseText {
		t.Fatal("engine escalated during cooldown")
	}
}

// TestAdaptiveHubRejectionRollsBack covers the re-admission contract: the
// manager pushes the mutated program optimistically, the hub's own rebuild
// overflows RAM and
// answers MsgConfigError, and the manager rolls back in lockstep — the
// hub keeps running the old program and the engine is clamped.
func TestAdaptiveHubRejectionRollsBack(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Devices: []hub.Device{hub.MSP430()}})
	if err != nil {
		t.Fatal(err)
	}
	var events int
	id, _, err := tb.Push(bigWindow(2500), ListenerFunc(func(Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	baseText := hubText(t, tb, id)
	cfg := adapt.DefaultConfig()
	cfg.Patience = 1
	cfg.AllowQ15 = false
	if err := tb.EnableAdaptive(id, cfg); err != nil {
		t.Fatal(err)
	}

	if err := tb.Feedback(id, false); err != nil {
		t.Fatal(err)
	}
	if got := hubText(t, tb, id); got != baseText {
		t.Fatalf("hub kept the rejected program:\n%s", got)
	}
	if got := managerText(t, tb, id); got != baseText {
		t.Fatal("manager view not rolled back to the hub's program")
	}
	s := adaptiveStats(t, tb, id)
	if s.Vetoes == 0 || s.MaxRung != 0 {
		t.Fatalf("hub rejection did not clamp the engine: %+v", s)
	}
	if _, ready, err := tb.Manager.Status(id); err != nil || !ready {
		t.Fatalf("condition unhealthy after rollback: ready=%v err=%v", ready, err)
	}
	// The surviving program still runs: a window of flat-high samples
	// has near-zero stddev, so feed a step edge to trip stddev > 5.
	for i := 0; i < 5000; i++ {
		v := 0.0
		if i%100 < 50 {
			v = 20
		}
		if err := tb.Feed(core.AccelX, v); err != nil {
			t.Fatal(err)
		}
	}
	if events == 0 {
		t.Error("condition delivered no wakes after rollback")
	}
}

// TestAdaptiveSurvivesCrashReprovision is the mid-adaptation crash
// property: once the policy engine has rebuilt the resident program, a
// hub reset + supervised recovery must re-provision the *adapted*
// program, not the developer's original — adaptation survives reboots
// with no extra protocol. The loop keeps working afterwards.
func TestAdaptiveSurvivesCrashReprovision(t *testing.T) {
	tb := supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 2000, Kind: resilience.Reset, DownTicks: 120},
	})
	var events []Event
	id, _, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := adapt.DefaultConfig()
	cfg.Patience = 1
	cfg.Cooldown = 0
	if err := tb.EnableAdaptive(id, cfg); err != nil {
		t.Fatal(err)
	}
	// Earn the decimation rung before the crash.
	for i := 0; i < 2; i++ {
		if err := tb.Feedback(id, false); err != nil {
			t.Fatal(err)
		}
	}
	adaptedText := managerText(t, tb, id)
	if !strings.Contains(adaptedText, "decimate") {
		t.Fatalf("adaptation did not reach the decimation rung:\n%s", adaptedText)
	}
	if got := hubText(t, tb, id); got != adaptedText {
		t.Fatal("hub not running the adapted program before the crash")
	}

	// Ride through the reset, the outage, and the supervised recovery.
	run(t, tb, 4000)

	sup := tb.Manager.Supervisor()
	if sup.State() != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", sup.State())
	}
	if sup.Stats().Reprovisions == 0 {
		t.Fatal("no completed re-provisioning round")
	}
	if tb.Hub.Epoch() != 2 {
		t.Fatalf("hub epoch = %d, want 2 after one reset", tb.Hub.Epoch())
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions after recovery, want 1", tb.Hub.Loaded())
	}
	if got := hubText(t, tb, id); got != adaptedText {
		t.Fatalf("recovery re-provisioned the wrong program:\ngot: %s\nwant: %s", got, adaptedText)
	}
	if _, ready, err := tb.Manager.Status(id); err != nil || !ready {
		t.Fatalf("condition not ready after recovery: ready=%v err=%v", ready, err)
	}

	// The feedback loop keeps adapting on the recovered hub: a false wake
	// tightens the threshold on top of the decimated program.
	if err := tb.Feedback(id, true); err != nil {
		t.Fatal(err)
	}
	got := hubText(t, tb, id)
	if got == adaptedText || !strings.Contains(got, "decimate") {
		t.Fatal("post-recovery adaptation did not update the hub program")
	}
	if got != managerText(t, tb, id) {
		t.Fatal("hub and manager program diverged after recovery")
	}

	// And the adapted condition still wakes the phone.
	events = events[:0]
	feedMotion(t, tb, 40)
	if len(events) == 0 {
		t.Fatal("no wake delivered from the recovered, adapted hub")
	}
}
