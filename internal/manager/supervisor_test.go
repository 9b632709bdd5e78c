package manager

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
)

// run services both sides n times without waiting for quiescence — the
// clock a supervised deployment actually lives on, where the hub may be
// dead for many consecutive passes.
func run(t *testing.T, tb *Testbed, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tb.Hub.Service(); err != nil {
			t.Fatalf("hub service: %v", err)
		}
		if err := tb.Manager.Service(); err != nil {
			t.Fatalf("manager service: %v", err)
		}
	}
}

func supervisedTestbed(t *testing.T, crashes []resilience.ScheduledCrash) *Testbed {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{
		BufSamples: 32,
		ARQ:        &link.ARQConfig{},
		Supervisor: &resilience.SupervisorConfig{
			PingIntervalTicks: 4, TimeoutTicks: 4, MissBudget: 2,
			ProbeBackoffTicks: 4, MaxProbeBackoffTicks: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) > 0 {
		tb.Hub.SetCrash(resilience.NewScheduledCrashInjector(crashes))
	}
	return tb
}

// feedMotion drives the significant-motion condition over the (recovered)
// hub and returns only after the link quiesced.
func feedMotion(t *testing.T, tb *Testbed, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
			if err := tb.Feed(ch, 18); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tb.Pump(); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisedResetRecovery is the tentpole scenario end to end: the
// hub hard-resets (conditions wiped, link state gone, new boot epoch),
// the supervisor notices via missed heartbeats, probes until the hub
// answers, re-provisions the condition set, and wake events flow again —
// all without the application doing anything.
func TestSupervisedResetRecovery(t *testing.T) {
	tb := supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Reset, DownTicks: 60},
	})
	var events []Event
	id, device, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if device != "MSP430" {
		t.Fatalf("placed on %s, want MSP430", device)
	}

	// Service through the crash, the outage, and the recovery.
	run(t, tb, 400)

	sup := tb.Manager.Supervisor()
	if sup.State() != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", sup.State())
	}
	st := sup.Stats()
	if st.Detections == 0 {
		t.Fatalf("reset went undetected: %+v", st)
	}
	if st.Reprovisions == 0 {
		t.Fatalf("no completed re-provisioning: %+v", st)
	}
	if tb.Hub.Epoch() != 2 {
		t.Fatalf("hub epoch = %d, want 2 after one reset", tb.Hub.Epoch())
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions after recovery, want 1", tb.Hub.Loaded())
	}
	rp := tb.Manager.ReprovisionStats()
	if rp.Passes == 0 || rp.Frames == 0 || rp.Bytes == 0 {
		t.Fatalf("re-provisioning cost not accounted: %+v", rp)
	}
	if _, ready, err := tb.Manager.Status(id); err != nil || !ready {
		t.Fatalf("condition not ready after recovery: ready=%v err=%v", ready, err)
	}

	// The re-provisioned condition must actually fire.
	feedMotion(t, tb, 40)
	if len(events) == 0 {
		t.Fatal("no wake delivered after recovery")
	}
	for _, ev := range events {
		if ev.CondID != id {
			t.Fatalf("wake for condition %d, want %d", ev.CondID, id)
		}
	}
}

// TestSupervisedHangRecovery: a hang keeps the hub's state, so recovery
// needs no reload — but the supervisor cannot know that from the outside,
// re-pushes anyway, and the hub's idempotent duplicate handling re-acks
// without double-loading.
func TestSupervisedHangRecovery(t *testing.T) {
	tb := supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Hang, DownTicks: 60},
	})
	var events []Event
	id, _, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}

	run(t, tb, 400)

	sup := tb.Manager.Supervisor()
	if sup.State() != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", sup.State())
	}
	if sup.Stats().Detections == 0 {
		t.Fatal("hang went undetected")
	}
	if tb.Hub.Epoch() != 1 {
		t.Fatalf("hub epoch = %d; a hang must not reboot", tb.Hub.Epoch())
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions, want 1 (no double-load on re-push)", tb.Hub.Loaded())
	}
	feedMotion(t, tb, 40)
	if len(events) == 0 {
		t.Fatal("no wake delivered after hang recovery")
	}
	_ = id
}

// TestSupervisedEpochCatchesFastReboot: an outage shorter than the miss
// budget never trips the silence detector, but the next heartbeat's boot
// epoch exposes the reboot and still triggers re-provisioning. Without
// the epoch, this is the silent wake-event killer: a hub that answers
// every ping with an empty condition table.
func TestSupervisedEpochCatchesFastReboot(t *testing.T) {
	tb := supervisedTestbed(t, []resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Brownout, DownTicks: 2},
	})
	if _, _, err := tb.Push(significantMotion(), ListenerFunc(func(Event) {})); err != nil {
		t.Fatal(err)
	}

	run(t, tb, 400)

	sup := tb.Manager.Supervisor()
	if sup.State() != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", sup.State())
	}
	st := sup.Stats()
	if st.EpochChanges+st.Detections == 0 {
		t.Fatalf("fast reboot went undetected: %+v", st)
	}
	if tb.Hub.Epoch() != 2 {
		t.Fatalf("hub epoch = %d, want 2", tb.Hub.Epoch())
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions after fast reboot, want 1", tb.Hub.Loaded())
	}
}

// TestUnsupervisedResetLosesConditions documents the failure mode the
// supervisor exists for: without it, a reset silently empties the hub
// and every future wake event is gone.
func TestUnsupervisedResetLosesConditions(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{BufSamples: 32, ARQ: &link.ARQConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Hub.SetCrash(resilience.NewScheduledCrashInjector([]resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Reset, DownTicks: 10},
	}))
	var events []Event
	if _, _, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	})); err != nil {
		t.Fatal(err)
	}
	run(t, tb, 200)
	if tb.Hub.Loaded() != 0 {
		t.Fatalf("hub still has %d conditions after unsupervised reset", tb.Hub.Loaded())
	}
	feedMotion(t, tb, 40)
	if len(events) != 0 {
		t.Fatalf("wakes delivered from an empty hub: %d", len(events))
	}
}
