package manager

import (
	"math"
	"testing"

	"sidewinder/internal/adapt"
	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/resilience"
)

// These tests pin the paper's §7 feedback rule as it runs today: every
// wake-up verdict feeds the condition's phone-side policy engine (a
// threshold-only one unless EnableAdaptive asked for more), and the
// tightened program reaches the hub as an in-place config push.

// tunable is accel-x through a 2-sample moving average into
// MinThreshold(10).
func tunable() *core.Pipeline {
	p := core.NewPipeline("tunable")
	p.AddBranch(core.NewBranch(core.AccelX).Add(core.MovingAverage(2)).Add(core.MinThreshold(10)))
	return p
}

// finalMin returns a plan's final-stage minimum threshold.
func finalMin(plan *core.Plan) float64 {
	return plan.Nodes[len(plan.Nodes)-1].Params.Float("min")
}

func TestFeedbackTightensConditionEndToEnd(t *testing.T) {
	tb := newBed(t)
	fires := 0
	id, _, err := tb.Push(tunable(), ListenerFunc(func(Event) { fires++ }))
	if err != nil {
		t.Fatal(err)
	}

	feed := func(v float64, n int) int {
		before := fires
		for i := 0; i < n; i++ {
			if err := tb.Feed(core.AccelX, v); err != nil {
				t.Fatal(err)
			}
		}
		return fires - before
	}

	// 11 m/s² fires against the developer threshold of 10.
	if got := feed(11, 4); got == 0 {
		t.Fatal("condition should fire at 11 before tuning")
	}
	// The app reports several false positives; the phone tightens.
	for i := 0; i < 6; i++ {
		if err := tb.Feedback(id, true); err != nil {
			t.Fatal(err)
		}
	}
	k, ok := tb.Manager.AdaptiveKnobs(id)
	if !ok || k.ThresholdFactor <= 1 {
		t.Fatalf("threshold factor = %g, %v", k.ThresholdFactor, ok)
	}
	// A plain verdict starts a threshold-only engine: no other axis moves.
	if k.Decimation != 1 || k.WindowScale != 1 || k.Precision != interp.Float64 {
		t.Fatalf("threshold-only engine moved another knob: %+v", k)
	}
	if got := hubText(t, tb, id); got != managerText(t, tb, id) {
		t.Fatalf("hub and manager program diverged:\nhub: %s\nmanager: %s", got, managerText(t, tb, id))
	}
	// 11 no longer fires (threshold is now ~13.4); 15 still does.
	if got := feed(11, 6); got != 0 {
		t.Fatalf("11 m/s² fired %d times after tightening", got)
	}
	if got := feed(15, 4); got == 0 {
		t.Fatal("15 m/s² should still fire after tightening")
	}
	// True positives relax back toward the developer's threshold.
	for i := 0; i < 60; i++ {
		if err := tb.Feedback(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if k, _ = tb.Manager.AdaptiveKnobs(id); k.ThresholdFactor != 1 {
		t.Fatalf("factor after sustained TPs = %g, want 1", k.ThresholdFactor)
	}
	if got := feed(11, 6); got == 0 {
		t.Fatal("11 m/s² should fire again after relaxation")
	}
}

func TestFeedbackUnknownCondition(t *testing.T) {
	tb := newBed(t)
	if err := tb.Manager.Feedback(99, true); err == nil {
		t.Fatal("feedback for unknown condition should fail")
	}
}

// TestFeedbackThenEnableAdaptiveTightensOnce pins the double-tightening
// bug of a second, hub-side tuning loop: verdicts before EnableAdaptive
// must not leave a stale factor compounded on top of the engine's
// proposal. The restarted engine begins at factor 1 from the developer's
// plan, so one more false positive yields min 10 × 1.05 = 10.5 — and the
// hub executes exactly that program.
func TestFeedbackThenEnableAdaptiveTightensOnce(t *testing.T) {
	tb := newBed(t)
	fires := 0
	id, _, err := tb.Push(tunable(), ListenerFunc(func(Event) { fires++ }))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tb.Feedback(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.EnableAdaptive(id, adapt.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// The restarted engine proposes the developer's plan, and the hub runs
	// that proposal before any further verdict.
	if got := finalMin(tb.Hub.conds[id].plan); got != 10 {
		t.Fatalf("hub min = %g after EnableAdaptive, want the developer's 10", got)
	}
	if err := tb.Feedback(id, true); err != nil {
		t.Fatal(err)
	}

	hub, mgr := hubText(t, tb, id), managerText(t, tb, id)
	if hub != mgr {
		t.Fatalf("hub and manager program diverged:\nhub: %s\nmanager: %s", hub, mgr)
	}
	plan := adaptivePlan(t, tb, id)
	if got := finalMin(plan); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("manager's final min = %g, want 10.5", got)
	}
	if got := finalMin(tb.Hub.conds[id].plan); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("hub's final min = %g, want 10.5", got)
	}
	for i := 0; i < 4; i++ {
		if err := tb.Feed(core.AccelX, 10.7); err != nil {
			t.Fatal(err)
		}
	}
	if fires == 0 {
		t.Fatal("a 10.7 reading did not wake the phone against min 10.5")
	}
}

// TestFeedbackTuningSurvivesHubCrash: the tightened threshold lives in the
// manager's record of the program, so a state-losing hub reset followed by
// supervised re-provisioning restores it rather than the developer's
// original threshold.
func TestFeedbackTuningSurvivesHubCrash(t *testing.T) {
	tb := supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 2000, Kind: resilience.Reset, DownTicks: 120},
	})
	fires := 0
	id, _, err := tb.Push(significantMotion(), ListenerFunc(func(Event) { fires++ }))
	if err != nil {
		t.Fatal(err)
	}
	baseText := hubText(t, tb, id)
	// Motion of magnitude 16.5 clears the developer's 15 but not the
	// tightened threshold; 18 clears both.
	feedX := func(v float64) int {
		before := fires
		for i := 0; i < 20; i++ {
			for _, s := range []struct {
				ch core.SensorChannel
				v  float64
			}{{core.AccelX, v}, {core.AccelY, 0}, {core.AccelZ, 0}} {
				if err := tb.Feed(s.ch, s.v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tb.Pump(); err != nil {
			t.Fatal(err)
		}
		return fires - before
	}
	// Three false positives: min 15 × 1.05³ ≈ 17.36.
	for i := 0; i < 3; i++ {
		if err := tb.Feedback(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := feedX(16.5); got != 0 {
		t.Fatalf("16.5 woke the phone %d times before the crash", got)
	}

	run(t, tb, 4000)
	sup := tb.Manager.Supervisor()
	if sup.State() != resilience.Up || sup.Stats().Reprovisions == 0 {
		t.Fatalf("no completed recovery: state %v, stats %+v", sup.State(), sup.Stats())
	}
	if tb.Hub.Epoch() != 2 {
		t.Fatalf("hub epoch = %d, want 2 after one reset", tb.Hub.Epoch())
	}
	if got := feedX(16.5); got != 0 {
		t.Fatalf("16.5 woke the phone %d times: the tightening was lost in the crash", got)
	}
	if got := feedX(18); got == 0 {
		t.Fatal("18 no longer wakes the phone after recovery")
	}
	// Recovery re-pushed the manager's tightened program.
	if got := hubText(t, tb, id); got == baseText || got != managerText(t, tb, id) {
		t.Fatalf("recovery re-provisioned the wrong program:\nhub: %s\nmanager: %s", got, managerText(t, tb, id))
	}
}

// TestFeedbackBeforeAckIsDropped: until the hub acks the push there is no
// settled program to tune, so a verdict sends nothing and starts no
// engine (a later MsgConfigError for the push must never be mistaken for
// a rejected threshold update).
func TestFeedbackBeforeAckIsDropped(t *testing.T) {
	tb := newBed(t)
	id, err := tb.Manager.Push(tunable(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	sent := tb.LinkStats().WireBytes
	if err := tb.Manager.Feedback(id, true); err != nil {
		t.Fatalf("verdict on an unsettled push: %v", err)
	}
	if got := tb.LinkStats().WireBytes; got != sent {
		t.Fatalf("verdict on an unsettled push sent %d bytes", got-sent)
	}
	if tb.Manager.adaptive[id] != nil {
		t.Fatal("verdict on an unsettled push started a policy engine")
	}
	if err := tb.Pump(); err != nil {
		t.Fatal(err)
	}
	if got := finalMin(tb.Hub.conds[id].plan); got != 10 {
		t.Fatalf("hub min = %g after the dropped verdict, want 10", got)
	}
	// Once settled, the next verdict does tighten.
	if err := tb.Feedback(id, true); err != nil {
		t.Fatal(err)
	}
	if got := finalMin(tb.Hub.conds[id].plan); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("hub min = %g after a settled verdict, want 10.5", got)
	}
}

// thresholdProposal is the plan the manager pushes for a threshold-only
// engine whose AIMD factor stands at factor: the developer's plan with its
// final admission stage tightened, every other knob at baseline.
func thresholdProposal(t *testing.T, base *core.Plan, factor float64) *core.Plan {
	t.Helper()
	k := adapt.NewEngine(thresholdOnly()).Knobs()
	k.ThresholdFactor = factor
	plan, err := adapt.Reparameterize(core.DefaultCatalog(), base, k)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestTunerAIMD(t *testing.T) {
	cfg := thresholdOnly()
	e := adapt.NewEngine(cfg)
	if f := e.Knobs().ThresholdFactor; f != 1 {
		t.Fatalf("fresh factor = %g", f)
	}
	// False positives tighten multiplicatively up to the cap.
	for i := 0; i < 100; i++ {
		e.Observe(adapt.FalseWake)
	}
	if f := e.Knobs().ThresholdFactor; f != cfg.ThresholdMax {
		t.Errorf("factor after FP storm = %g, want capped at %g", f, cfg.ThresholdMax)
	}
	// True positives drift back toward 1 and never below.
	for i := 0; i < 500; i++ {
		e.Observe(adapt.TrueWake)
	}
	if f := e.Knobs().ThresholdFactor; f != 1 {
		t.Errorf("factor after TP run = %g, want 1", f)
	}
	e.TakeDirty()
	e.Observe(adapt.TrueWake)
	if e.TakeDirty() {
		t.Error("feedback at the floor should report no change")
	}
}

func TestAdjustedPlanMinThreshold(t *testing.T) {
	plan, err := tunable().Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	adj := thresholdProposal(t, plan, 1.2)
	if got := finalMin(adj); math.Abs(got-12) > 1e-12 {
		t.Errorf("tightened min = %g, want 12", got)
	}
	// The original plan is untouched.
	if finalMin(plan) != 10 {
		t.Error("tightening mutated the original")
	}
	// Factor 1 proposes the developer's program: nothing to push.
	if compileIR(thresholdProposal(t, plan, 1)) != compileIR(plan) {
		t.Error("factor 1 should be the identity")
	}
}

func TestAdjustedPlanMaxThresholdAndNegatives(t *testing.T) {
	p := core.NewPipeline("x")
	p.AddBranch(core.NewBranch(core.AccelY).Add(core.MovingAverage(2)).Add(core.MaxThreshold(-3)))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	adj := thresholdProposal(t, plan, 1.1)
	got := adj.Nodes[len(adj.Nodes)-1].Params.Float("max")
	// Stricter max threshold: lower. -3 - 0.3 = -3.3.
	if math.Abs(got-(-3.3)) > 1e-12 {
		t.Errorf("tightened max = %g, want -3.3", got)
	}
	// Negative min threshold also tightens upward.
	p2 := core.NewPipeline("y")
	p2.AddBranch(core.NewBranch(core.AccelY).Add(core.MovingAverage(2)).Add(core.MinThreshold(-5)))
	plan2, err := p2.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if got := finalMin(thresholdProposal(t, plan2, 1.1)); math.Abs(got-(-4.5)) > 1e-12 {
		t.Errorf("tightened negative min = %g, want -4.5", got)
	}
}

func TestAdjustedPlanBandThreshold(t *testing.T) {
	p := core.NewPipeline("x")
	p.AddBranch(core.NewBranch(core.AccelX).Add(core.MovingAverage(2)).Add(core.BandThreshold(2, 6)))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	adj := thresholdProposal(t, plan, 1.2)
	last := adj.Nodes[len(adj.Nodes)-1].Params
	lo, hi := last.Float("min"), last.Float("max")
	if lo <= 2 || hi >= 6 || lo >= hi {
		t.Errorf("band after tightening = [%g, %g], want shrunk within (2, 6)", lo, hi)
	}
}

func TestAdjustedPlanAggregatorFinalIsNoop(t *testing.T) {
	p := core.NewPipeline("x")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)),
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("range")).Add(core.MinThreshold(1)),
	)
	p.Add(core.And())
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if compileIR(thresholdProposal(t, plan, 1.3)) != compileIR(plan) {
		t.Error("and-terminated plans cannot be tuned; expected identity")
	}
}
