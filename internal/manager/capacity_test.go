package manager

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sched"
)

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

// sirenAt is sirenPipeline with a configurable high-pass cutoff: distinct
// cutoffs share nothing, so each copy pays its full ~14 KB of window
// state — three of them overflow the LM4F120's RAM.
func sirenAt(cutoff float64) *core.Pipeline {
	p := core.NewPipeline("siren")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(cutoff, 512)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThreshold(4)))
	return p
}

// schedBed builds a testbed whose hub ladder and admission controller
// model the same single device.
func schedBed(t *testing.T, dev hub.Device, cfg TestbedConfig) *Testbed {
	t.Helper()
	cfg.Devices = []hub.Device{dev}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Manager.AttachScheduler(sched.New(dev))
	return tb
}

// TestScheduledPushDegradesInfeasible: on an MSP430-only hub the siren's
// FFT chain cannot run; with the admission controller attached the push
// degrades to phone fallback instead of bouncing off the hub's rejection.
func TestScheduledPushDegradesInfeasible(t *testing.T) {
	tb := schedBed(t, hub.MSP430(), TestbedConfig{})
	var motionEvents, sirenEvents int
	motionID, device, err := tb.Push(significantMotion(), ListenerFunc(func(Event) { motionEvents++ }))
	if err != nil {
		t.Fatal(err)
	}
	if device != "MSP430" {
		t.Errorf("motion placed on %s, want MSP430", device)
	}
	sirenID, device, err := tb.Push(sirenPipeline(), ListenerFunc(func(Event) { sirenEvents++ }))
	if err != nil {
		t.Fatalf("degraded push must not error: %v", err)
	}
	if device != sched.FallbackDeviceName {
		t.Errorf("siren placed on %s, want %s", device, sched.FallbackDeviceName)
	}
	if tb.Hub.Loaded() != 1 {
		t.Errorf("hub has %d conditions, want 1 (siren must not reach the hub)", tb.Hub.Loaded())
	}

	// Feedback on a degraded condition is accepted and dropped (no hub
	// threshold to tune, so no policy engine starts); on an unknown ID it
	// still errors.
	if err := tb.Manager.Feedback(sirenID, true); err != nil {
		t.Errorf("feedback on degraded condition: %v", err)
	}
	if tb.Manager.AdaptiveEnabled(sirenID) {
		t.Error("feedback on a degraded condition started a policy engine")
	}
	if err := tb.Manager.Feedback(999, true); err == nil {
		t.Error("feedback on unknown condition must error")
	}

	// The admitted condition still works end to end.
	feedMotion(t, tb, 40)
	if motionEvents == 0 {
		t.Error("admitted condition delivered no wakes")
	}
	if sirenEvents != 0 {
		t.Errorf("degraded condition delivered %d wakes through the hub", sirenEvents)
	}

	// Removing the admitted condition cannot promote the siren — it is
	// infeasible on this device at any load.
	if err := tb.Remove(motionID); err != nil {
		t.Fatal(err)
	}
	if tb.Hub.Loaded() != 0 {
		t.Errorf("hub has %d conditions after remove", tb.Hub.Loaded())
	}
	if device, _, _ := tb.Manager.Status(sirenID); device != sched.FallbackDeviceName {
		t.Errorf("siren moved to %s, want still %s", device, sched.FallbackDeviceName)
	}
}

// TestScheduledPriorityDisplacement drives demotion and promotion through
// the full stack: a higher-priority arrival displaces the lowest-priority
// condition off a full hub, and removing a resident brings it back.
func TestScheduledPriorityDisplacement(t *testing.T) {
	tb := schedBed(t, hub.LM4F120(), TestbedConfig{})
	push := func(cutoff float64, prio int) uint16 {
		t.Helper()
		id, err := tb.Manager.PushPriority(sirenAt(cutoff), prio, ListenerFunc(func(Event) {}))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Pump(); err != nil {
			t.Fatal(err)
		}
		return id
	}
	id1 := push(751, 1)
	id2 := push(752, 2)
	if tb.Hub.Loaded() != 2 {
		t.Fatalf("hub has %d conditions, want 2", tb.Hub.Loaded())
	}

	// Third distinct siren: ~43 KB of window state against 32 KB of RAM.
	// The new arrival outranks condition 1, which must yield its slot.
	id3 := push(753, 3)
	if tb.Hub.Loaded() != 2 {
		t.Errorf("hub has %d conditions after displacement, want 2", tb.Hub.Loaded())
	}
	if device, _, _ := tb.Manager.Status(id1); device != sched.FallbackDeviceName {
		t.Errorf("condition 1 on %s, want %s", device, sched.FallbackDeviceName)
	}
	for _, id := range []uint16{id2, id3} {
		device, ready, err := tb.Manager.Status(id)
		if err != nil || !ready || device != "LM4F120" {
			t.Errorf("condition %d: device=%s ready=%v err=%v, want LM4F120", id, device, ready, err)
		}
	}

	// Freeing capacity promotes the victim back onto the hub.
	if err := tb.Remove(id3); err != nil {
		t.Fatal(err)
	}
	if tb.Hub.Loaded() != 2 {
		t.Errorf("hub has %d conditions after promotion, want 2", tb.Hub.Loaded())
	}
	device, ready, err := tb.Manager.Status(id1)
	if err != nil || !ready || device != "LM4F120" {
		t.Errorf("promoted condition: device=%s ready=%v err=%v, want LM4F120", device, ready, err)
	}
}

// TestDegradedNotReprovisionedAfterCrash: after a hub reset, recovery
// re-pushes only hub-resident conditions. A degraded condition must stay
// on the phone — re-provisioning it would silently override the
// admission decision and overload the freshly booted hub.
func TestDegradedNotReprovisionedAfterCrash(t *testing.T) {
	tb := schedBed(t, hub.MSP430(), TestbedConfig{
		BufSamples: 32,
		ARQ:        &link.ARQConfig{},
		CrashSchedule: []resilience.ScheduledCrash{
			{AtTick: 100, Kind: resilience.Reset, DownTicks: 60},
		},
		Supervisor: &resilience.SupervisorConfig{
			PingIntervalTicks: 4, TimeoutTicks: 4, MissBudget: 2,
			ProbeBackoffTicks: 4, MaxProbeBackoffTicks: 16,
		},
	})
	var motionEvents int
	if _, _, err := tb.Push(significantMotion(), ListenerFunc(func(Event) { motionEvents++ })); err != nil {
		t.Fatal(err)
	}
	sirenID, device, err := tb.Push(sirenPipeline(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if device != sched.FallbackDeviceName {
		t.Fatalf("siren placed on %s, want %s", device, sched.FallbackDeviceName)
	}

	run(t, tb, 400)

	if tb.Manager.Supervisor().State() != resilience.Up {
		t.Fatalf("supervisor state = %v, want up", tb.Manager.Supervisor().State())
	}
	if tb.Hub.Loaded() != 1 {
		t.Errorf("hub has %d conditions after recovery, want 1 (degraded must stay off)", tb.Hub.Loaded())
	}
	if device, _, _ := tb.Manager.Status(sirenID); device != sched.FallbackDeviceName {
		t.Errorf("siren on %s after recovery, want %s", device, sched.FallbackDeviceName)
	}
	feedMotion(t, tb, 40)
	if motionEvents == 0 {
		t.Error("re-provisioned condition delivered no wakes")
	}
}
