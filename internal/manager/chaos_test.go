package manager

import (
	"fmt"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
)

// chaosProfiles are the fault regimes of the chaos matrix: each keeps
// frame loss at or below ~5%, the level at which the acceptance bar
// demands 100% eventual delivery with bounded retries.
var chaosProfiles = []struct {
	name  string
	fault link.FaultConfig
}{
	{"drop-only", link.FaultConfig{DropProb: 0.05}},
	// BitFlipProb is per wire byte: 0.05% per byte ≈ 7% of the largest
	// frames in this test (a 32-sample data buffer ≈ 150 wire bytes).
	{"corrupt-only", link.FaultConfig{BitFlipProb: 0.0005}},
	{"burst", link.FaultConfig{BurstProb: 0.05, BurstLen: 6}},
	{"combined", link.FaultConfig{
		DropProb: 0.02, BitFlipProb: 0.0002, TruncateProb: 0.01,
		BurstProb: 0.01, BurstLen: 4, DelayProb: 0.02, DelayTicks: 2,
	}},
}

// TestChaosMatrix replays the quickstart push + wake cycle (significant
// motion on the accelerometer) under every fault profile and seed,
// asserting that the ARQ layer converges: the condition loads, every
// hub-side wake reaches the listener exactly once, and no corrupted
// payload ever surfaces as an event.
func TestChaosMatrix(t *testing.T) {
	for _, prof := range chaosProfiles {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				fault := prof.fault
				fault.Seed = seed
				tb, err := NewTestbed(TestbedConfig{
					// A small ring keeps the largest frame ~150 wire
					// bytes, so the per-byte fault rates above stay in
					// the ≤5% frame-loss regime the matrix targets.
					BufSamples: 32,
					Fault:      &fault,
					ARQ:        &link.ARQConfig{},
				})
				if err != nil {
					t.Fatal(err)
				}

				var events []Event
				seen := make(map[int64]bool)
				id, device, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
					events = append(events, e)
					if seen[e.SampleIndex] {
						t.Errorf("duplicate wake for sample %d", e.SampleIndex)
					}
					seen[e.SampleIndex] = true
				}))
				if err != nil {
					t.Fatalf("push under %s faults: %v", prof.name, err)
				}
				if device != "MSP430" {
					t.Errorf("placed on %s, want MSP430", device)
				}

				feed := func(x, y, z float64, n int) {
					for i := 0; i < n; i++ {
						if err := tb.Feed(core.AccelX, x); err != nil {
							t.Fatal(err)
						}
						if err := tb.Feed(core.AccelY, y); err != nil {
							t.Fatal(err)
						}
						if err := tb.Feed(core.AccelZ, z); err != nil {
							t.Fatal(err)
						}
					}
				}
				feed(0, 0, 9.81, 60) // idle
				if len(events) != 0 {
					t.Fatalf("idle produced %d events", len(events))
				}
				feed(12, 12, 12, 60) // violent motion
				if err := tb.Pump(); err != nil {
					t.Fatal(err)
				}

				if tb.Hub.WakesSent() == 0 {
					t.Fatal("motion produced no hub-side wakes")
				}
				// Eventual delivery must be total: every wake the hub
				// fired reached the listener, none twice.
				if len(events) != tb.Hub.WakesSent() {
					t.Fatalf("delivered %d of %d wakes", len(events), tb.Hub.WakesSent())
				}
				for _, ev := range events {
					if ev.CondID != id {
						t.Fatalf("corrupted cond id %d delivered", ev.CondID)
					}
					if ev.Value < 15 {
						t.Fatalf("corrupted value %g delivered (below threshold)", ev.Value)
					}
					for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
						if len(ev.Data[ch]) == 0 {
							t.Fatalf("wake delivered without %s data buffer", ch)
						}
					}
				}

				s := tb.LinkStats()
				if s.PhoneARQ.Dead != 0 || s.HubARQ.Dead != 0 {
					t.Fatalf("frames died at ≤5%% loss: phone=%+v hub=%+v", s.PhoneARQ, s.HubARQ)
				}
				// Retries must be bounded: stop-and-wait resends each
				// frame at most MaxRetries (8) times.
				sent := s.HubARQ.DataSent + s.PhoneARQ.DataSent
				retr := s.HubARQ.Retransmits + s.PhoneARQ.Retransmits
				if retr > 8*sent {
					t.Fatalf("retransmissions unbounded: %d for %d frames", retr, sent)
				}
				if tb.Manager.DroppedFrames() != 0 || tb.Hub.DroppedFrames() != 0 {
					// ARQ only delivers CRC-valid frames, so neither
					// side should ever see an undecodable payload.
					t.Fatalf("decodable-frame invariant broken: mgr=%d hub=%d",
						tb.Manager.DroppedFrames(), tb.Hub.DroppedFrames())
				}
			})
		}
	}
}

// TestChaosRawLinkLosesWakes is the control experiment: the same drop
// profile without the ARQ layer must actually lose traffic, otherwise the
// chaos matrix proves nothing.
func TestChaosRawLinkLosesWakes(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{
		Fault: &link.FaultConfig{Seed: 1, DropProb: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	listener := ListenerFunc(func(e Event) { events = append(events, e) })
	// Push may need several attempts over a raw 30%-drop wire.
	id, err := tb.Manager.Push(significantMotion(), listener)
	if err != nil {
		t.Fatal(err)
	}
	loaded := false
	for try := 0; try < 20; try++ {
		if err := tb.Pump(); err != nil {
			t.Fatal(err)
		}
		if _, ready, serr := tb.Manager.Status(id); ready && serr == nil {
			loaded = true
			break
		}
		if err := tb.Manager.Repush(id); err != nil {
			t.Fatal(err)
		}
	}
	if !loaded {
		t.Fatal("condition never loaded over raw lossy link")
	}
	for i := 0; i < 120; i++ {
		tb.Feed(core.AccelX, 12)
		tb.Feed(core.AccelY, 12)
		tb.Feed(core.AccelZ, 12)
	}
	if err := tb.Pump(); err != nil {
		t.Fatal(err)
	}
	if tb.Hub.WakesSent() == 0 {
		t.Fatal("no wakes fired")
	}
	if len(events) >= tb.Hub.WakesSent() {
		t.Fatalf("raw link at 30%% drop lost nothing: %d of %d delivered",
			len(events), tb.Hub.WakesSent())
	}
}

// crashChaosScenarios are the hub-failure regimes of the crash chaos
// matrix, layered on top of a lossy wire: a reset arriving while the
// initial config push is still in flight, a hang landing in the middle of
// wake/ack traffic, and a storm of back-to-back reboots.
var crashChaosScenarios = []struct {
	name    string
	crashes []resilience.ScheduledCrash
}{
	{"reset-while-pushing", []resilience.ScheduledCrash{
		{AtTick: 2, Kind: resilience.Reset, DownTicks: 30},
	}},
	{"hang-mid-ack", []resilience.ScheduledCrash{
		{AtTick: 40, Kind: resilience.Hang, DownTicks: 50},
	}},
	{"reboot-storm", []resilience.ScheduledCrash{
		{AtTick: 100, Kind: resilience.Reset, DownTicks: 20},
		{AtTick: 160, Kind: resilience.Brownout, DownTicks: 30},
		{AtTick: 230, Kind: resilience.Reset, DownTicks: 15},
	}},
}

// TestCrashChaosMatrix runs every crash scenario over a moderately lossy
// wire and asserts the supervised stack converges: the supervisor ends
// Up, the condition set survives (re-provisioned as needed), post-recovery
// wakes reach the listener, and no duplicate or corrupted event ever
// surfaces. Wakes fired immediately before a reset may legitimately die
// with the hub's link buffers, so delivery completeness is asserted only
// for the post-recovery traffic.
func TestCrashChaosMatrix(t *testing.T) {
	for _, sc := range crashChaosScenarios {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				tb, err := NewTestbed(TestbedConfig{
					BufSamples: 32,
					Fault: &link.FaultConfig{
						Seed: seed, DropProb: 0.02, BitFlipProb: 0.0002,
						TruncateProb: 0.01, DelayProb: 0.02, DelayTicks: 2,
					},
					ARQ: &link.ARQConfig{},
					Supervisor: &resilience.SupervisorConfig{
						PingIntervalTicks: 4, TimeoutTicks: 4, MissBudget: 2,
						ProbeBackoffTicks: 4, MaxProbeBackoffTicks: 16,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				tb.Hub.SetCrash(resilience.NewScheduledCrashInjector(sc.crashes))
				var events []Event
				seen := make(map[int64]bool)
				id, err := tb.Manager.Push(significantMotion(), ListenerFunc(func(e Event) {
					events = append(events, e)
					if seen[e.SampleIndex] {
						t.Errorf("duplicate wake for sample %d", e.SampleIndex)
					}
					seen[e.SampleIndex] = true
				}))
				if err != nil {
					t.Fatal(err)
				}

				// Service through every scheduled crash plus recovery
				// slack, the way a deployment lives: no waiting for
				// quiescence, the hub may be dead for many passes.
				for i := 0; i < 600; i++ {
					if err := tb.Hub.Service(); err != nil {
						t.Fatalf("hub service: %v", err)
					}
					if err := tb.Manager.Service(); err != nil {
						t.Fatalf("manager service: %v", err)
					}
				}

				sup := tb.Manager.Supervisor()
				if sup.State() != resilience.Up {
					t.Fatalf("supervisor did not converge: state %v, stats %+v",
						sup.State(), sup.Stats())
				}
				if tb.Hub.Loaded() != 1 {
					t.Fatalf("hub has %d conditions, want 1", tb.Hub.Loaded())
				}
				if _, ready, serr := tb.Manager.Status(id); serr != nil || !ready {
					t.Fatalf("condition not ready after storm: ready=%v err=%v", ready, serr)
				}

				// Post-recovery traffic must be complete: every wake the
				// hub fires from here on is delivered exactly once.
				sentBefore, deliveredBefore := tb.Hub.WakesSent(), len(events)
				for i := 0; i < 60; i++ {
					for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
						if err := tb.Feed(ch, 18); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := tb.Pump(); err != nil {
					t.Fatal(err)
				}
				sent := tb.Hub.WakesSent() - sentBefore
				delivered := len(events) - deliveredBefore
				if sent == 0 {
					t.Fatal("no wakes fired after recovery")
				}
				if delivered != sent {
					t.Fatalf("post-recovery delivery incomplete: %d of %d", delivered, sent)
				}
				for _, ev := range events {
					if ev.CondID != id {
						t.Fatalf("corrupted cond id %d delivered", ev.CondID)
					}
					if ev.Value < 15 {
						t.Fatalf("corrupted value %g delivered", ev.Value)
					}
				}
			})
		}
	}
}
