package manager

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/resilience"
)

// These tests pin down how Remove and Feedback interact with crash
// supervision: a condition removed while the hub is unreachable (Down) or
// mid-recovery (Recovering) must NOT come back when the supervisor
// re-provisions the reconnected hub.

// motionAt is significantMotion with a configurable threshold, so tests
// can register structurally distinct accelerometer conditions.
func motionAt(threshold float64) *core.Pipeline {
	p := core.NewPipeline("motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(threshold))
	return p
}

// runUntil services both sides until the supervisor reaches the wanted
// state, failing the test if it never does within maxTicks.
func runUntil(t *testing.T, tb *Testbed, want resilience.SupervisorState, maxTicks int) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		if tb.Manager.Supervisor().State() == want {
			return
		}
		run(t, tb, 1)
	}
	t.Fatalf("supervisor never reached %v within %d ticks (state %v)",
		want, maxTicks, tb.Manager.Supervisor().State())
}

// removalBed pushes two distinguishable motion conditions onto a
// supervised testbed that will reset at tick 100 for 60 ticks.
func removalBed(t *testing.T) (tb *Testbed, idA, idB uint16, eventsA, eventsB *int) {
	t.Helper()
	tb = supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Reset, DownTicks: 60},
	})
	eventsA, eventsB = new(int), new(int)
	idA, _, err := tb.Push(motionAt(15), ListenerFunc(func(Event) { *eventsA++ }))
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err = tb.Push(motionAt(25), ListenerFunc(func(Event) { *eventsB++ }))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Hub.Loaded() != 2 {
		t.Fatalf("hub has %d conditions before the crash, want 2", tb.Hub.Loaded())
	}
	return tb, idA, idB, eventsA, eventsB
}

// checkRemovedStaysRemoved drives the testbed through recovery and
// asserts that only condition B survived: one condition on the hub, wakes
// for B but none for A, and A unknown to the manager.
func checkRemovedStaysRemoved(t *testing.T, tb *Testbed, idA uint16, eventsA, eventsB *int) {
	t.Helper()
	run(t, tb, 400)
	if st := tb.Manager.Supervisor().State(); st != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", st)
	}
	if tb.Hub.Loaded() != 1 {
		t.Errorf("hub has %d conditions after recovery, want 1 (removed condition re-provisioned?)", tb.Hub.Loaded())
	}
	*eventsA, *eventsB = 0, 0
	feedMotion(t, tb, 40)
	if *eventsA != 0 {
		t.Errorf("removed condition delivered %d wakes after recovery", *eventsA)
	}
	if *eventsB == 0 {
		t.Error("surviving condition delivered no wakes after recovery")
	}
	if _, _, err := tb.Manager.Status(idA); err == nil {
		t.Error("removed condition still has status")
	}
}

func TestRemoveWhileDownNotReprovisioned(t *testing.T) {
	tb, idA, _, eventsA, eventsB := removalBed(t)
	runUntil(t, tb, resilience.Down, 300)
	// The hub is declared dead; the app loses interest in condition A.
	// The MsgRemove frame itself may die on the dead link — what matters
	// is that recovery must not resurrect the condition.
	if err := tb.Manager.Remove(idA); err != nil {
		t.Fatalf("remove while down: %v", err)
	}
	checkRemovedStaysRemoved(t, tb, idA, eventsA, eventsB)
}

func TestRemoveWhileRecoveringNotReprovisioned(t *testing.T) {
	tb, idA, _, eventsA, eventsB := removalBed(t)
	runUntil(t, tb, resilience.Down, 300)
	runUntil(t, tb, resilience.Recovering, 300)
	// Mid-recovery the re-provision pass may already have re-pushed A;
	// removing it now must still converge to A gone from the hub.
	if err := tb.Manager.Remove(idA); err != nil {
		t.Fatalf("remove while recovering: %v", err)
	}
	checkRemovedStaysRemoved(t, tb, idA, eventsA, eventsB)
}

func TestFeedbackDuringOutageAndAfterRemove(t *testing.T) {
	tb, idA, idB, _, _ := removalBed(t)
	runUntil(t, tb, resilience.Down, 300)
	// A verdict while the hub is dead is never an error surfaced to the
	// app: the threshold update it triggers rides the ARQ like any other
	// config push, and recovery re-provisions whatever program is current.
	if err := tb.Manager.Feedback(idA, true); err != nil {
		t.Errorf("feedback while down: %v", err)
	}
	if err := tb.Manager.Remove(idA); err != nil {
		t.Fatal(err)
	}
	// After removal the ID is unknown — feedback must error, outage or not.
	if err := tb.Manager.Feedback(idA, true); err == nil {
		t.Error("feedback on removed condition must error")
	}
	run(t, tb, 400)
	if st := tb.Manager.Supervisor().State(); st != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", st)
	}
	// Feedback on the survivor works again post-recovery.
	if err := tb.Manager.Feedback(idB, false); err != nil {
		t.Errorf("feedback after recovery: %v", err)
	}
}
