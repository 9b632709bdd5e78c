package sim

// Crash-resilience replay: the full manager/link/hub stack with a fault
// model on the HUB rather than the wire. The hub crashes (hard reset,
// transient hang, brownout reboot) under a deterministic seeded injector;
// the manager's supervisor detects the outage via heartbeats, probes with
// capped backoff, and re-provisions every condition on reconnect, while
// the phone degrades to fallback sensing so events occurring during the
// outage are caught rather than structurally lost.
//
// Wake accounting runs against an oracle interpreter — the same wake-up
// condition replayed continuously outside the failing stack — and every
// oracle wake is attributed to exactly one window of the timeline:
//
//   hub window        supervisor believes the hub is up, and it is
//   fallback window   supervisor is in Down/Recovering: fallback sensing
//                     (always-awake or duty-cycle) covers the event
//   detection window  the hub is dead but the supervisor has not noticed
//                     yet — the exposure bounded by the miss budget
//   structural loss   the hub is "up" with no conditions loaded: the wake
//                     is gone and nothing even knows. This is the
//                     unsupervised failure mode; with a supervisor it
//                     must be zero.

import (
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/interp"
	"sidewinder/internal/link"
	"sidewinder/internal/manager"
	"sidewinder/internal/power"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// FallbackMode selects what the phone does while the supervisor believes
// the hub is down.
type FallbackMode int

const (
	// FallbackAlwaysAwake keeps the main processor awake for the whole
	// outage: every event is caught immediately, at the awake draw.
	FallbackAlwaysAwake FallbackMode = iota
	// FallbackDutyCycle runs the duty-cycling schedule instead: cheaper,
	// and events are still caught — sensor data buffers across the sleep
	// interval (batching-style) and is examined on the next waking — at
	// the cost of detection latency.
	FallbackDutyCycle
)

// String returns the mode's report name.
func (m FallbackMode) String() string {
	switch m {
	case FallbackAlwaysAwake:
		return "always-awake"
	case FallbackDutyCycle:
		return "duty-cycle"
	default:
		return fmt.Sprintf("fallback(%d)", int(m))
	}
}

// CrashRunConfig parameterizes one crash-resilience replay.
type CrashRunConfig struct {
	// Crash is the hub failure regime. A disabled profile (zero MTBF)
	// replays an immortal hub — the baseline.
	Crash resilience.CrashProfile
	// Supervisor, when non-nil, enables the manager-side watchdog with
	// this configuration. nil replays the unsupervised stack, which is
	// how structural loss becomes visible.
	Supervisor *resilience.SupervisorConfig
	// Fallback selects the phone's degraded sensing mode during detected
	// outages. Only meaningful with a supervisor.
	Fallback FallbackMode

	// Telemetry, when enabled, instruments the run: supervisor counters
	// and state instants, crash/recovery events, outage spans, and an
	// energy ledger with the fallback draw as its own component.
	Telemetry telemetry.Set
}

// CrashResult reports wake attribution, resilience accounting and energy
// for one replay.
type CrashResult struct {
	// OracleWakes is the total the condition fires when replayed outside
	// the failing stack; the four windows below partition it exactly.
	OracleWakes           int
	HubWindowWakes        int
	FallbackWakes         int
	DetectionWindowWakes  int
	StructurallyLostWakes int

	HubWakes       int // wake frames the live hub handed to the link
	DeliveredWakes int // wake events that reached the listener
	PushAttempts   int

	Crash               resilience.CrashStats
	Supervisor          resilience.SupervisorStats
	Reprovision         manager.ReprovisionStats
	DetectionLatencySec float64 // mean time from hub death to Down
	HubUpSec            float64 // hub alive time (its energy base)
	FallbackSec         float64 // time spent in fallback sensing

	PhoneEnergyMJ    float64 // supervised-normal phone machine energy
	FallbackEnergyMJ float64 // extra draw of fallback sensing windows
	HubEnergyMJ      float64 // hub draw over its alive time only
	LinkEnergyMJ     float64 // wire occupancy including reprovisioning
	TotalMJ          float64
	TotalAvgMW       float64

	Stats manager.LinkStats
}

// fallbackSleepSec is the sleep interval of duty-cycled fallback sensing,
// both during a detected hub outage and for conditions the fleet's
// admission controller degraded off an overloaded hub.
const fallbackSleepSec = 10

// fallbackAvgMW prices one second of fallback sensing.
func fallbackAvgMW(mode FallbackMode, p power.Profile) float64 {
	switch mode {
	case FallbackDutyCycle:
		// One duty period: wake transition, 4 s collecting, sleep
		// transition, then the sleep interval.
		period := 2*p.TransitionSeconds + dutyAwakeSec + fallbackSleepSec
		energy := p.TransitionSeconds*(p.WakeTransitionMW+p.SleepTransition) +
			dutyAwakeSec*p.AwakeMW + fallbackSleepSec*p.AsleepMW
		return energy / period
	default:
		return p.AwakeMW
	}
}

// CrashRun replays an application's wake-up condition through the full
// stack while the hub crashes on the injector's schedule, and measures
// what the supervision subsystem saves: wake attribution across the
// timeline windows, detection latency, re-provisioning cost, and the
// energy split between normal operation and fallback sensing.
//
// The clock convention is one Service pass per side per trace sample, so
// supervisor and injector ticks are samples and latencies convert to
// seconds by dividing by the trace rate.
func CrashRun(tr *sensor.Trace, app *apps.App, cfg CrashRunConfig) (*CrashResult, error) {
	// The supervised protocol assumes reliable config pushes, so the wire
	// always runs the default ARQ.
	r, err := startTestbed(tr, app, manager.TestbedConfig{
		ARQ:        &link.ARQConfig{},
		Supervisor: cfg.Supervisor,
		Telemetry:  cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	bed := r.bed

	// The oracle interpreter replays the same condition continuously,
	// outside the failing stack: its wakes are what SHOULD happen.
	plan, err := app.Wake.Validate(bed.Manager.Catalog())
	if err != nil {
		return nil, err
	}
	oracle, err := interp.New(plan)
	if err != nil {
		return nil, err
	}

	// Install the injector only after initial provisioning: the sweep
	// measures steady-state resilience, and crash-during-push is covered
	// by the scheduled-injector chaos tests.
	inj, err := resilience.NewCrashInjector(cfg.Crash)
	if err != nil {
		return nil, err
	}
	bed.Hub.SetCrash(inj)
	sup := bed.Manager.Supervisor()

	res := &CrashResult{}
	fbMW := fallbackAvgMW(cfg.Fallback, power.Nexus4())
	n := tr.Len()
	dt := r.dt

	// The oracle runs outside the failing stack, so its whole-trace fire
	// list can be precomputed on the interpreter's block fast path (a
	// chunk at a time, which bounds the block stages' scratch); the main
	// loop consumes it in step, attributing each firing to its timeline
	// window. The live hub still gets fed per sample — its state
	// interleaves with crash injection and heartbeat servicing.
	var fires fireList
	for base := 0; base < n; base += simBlock {
		oracle.Run(r.names, r.channels, base, min(base+simBlock, n), fires.add)
	}
	fires = fires.set()

	// Outage span tracing: one span per contiguous non-Up stretch.
	phoneStream, _, _ := bed.Streams()
	spanState := resilience.Up
	spanStart := 0.0
	emitSpan := func(endSec float64) {
		if spanState != resilience.Up && phoneStream != nil {
			phoneStream.Span("supervisor."+spanState.String(), "supervisor", spanStart, endSec-spanStart)
		}
	}

	for s := 0; s < n; s++ {
		r.cur = s
		nowSec := float64(s) * dt

		// One service pass per side per sample: the supervisor's tick IS
		// the sample clock.
		if err := bed.Hub.Service(); err != nil {
			return nil, err
		}
		if err := bed.Manager.Service(); err != nil {
			return nil, err
		}

		state := sup.State()
		if state != spanState {
			emitSpan(nowSec)
			spanState, spanStart = state, nowSec
		}
		fallbackNow := state == resilience.Down || state == resilience.Recovering

		// Feed the live hub (it drops samples internally while down); the
		// oracle's fire list attributes a firing at this sample to its
		// timeline window.
		if err := r.feed(s, bed.Hub.Feed); err != nil {
			return nil, err
		}
		if len(fires) > 0 && fires[0] == s {
			fires = fires[1:]
			res.OracleWakes++
			switch {
			case fallbackNow:
				res.FallbackWakes++
			case inj.Down():
				res.DetectionWindowWakes++
			case bed.Hub.Loaded() == 0:
				// The hub is back up with empty state and the supervisor
				// has not noticed yet. Supervised, the exposure is
				// bounded — the next heartbeat's epoch reveals the
				// reboot — so it counts as detection latency.
				// Unsupervised, nothing will ever notice: the wake is
				// structurally lost.
				if cfg.Supervisor != nil {
					res.DetectionWindowWakes++
				} else {
					res.StructurallyLostWakes++
				}
			default:
				res.HubWindowWakes++
			}
		}

		if !inj.Down() {
			res.HubUpSec += dt
		}
		if fallbackNow {
			// The main processor runs the fallback schedule instead of
			// its normal machine: bill the window separately and leave
			// the machine frozen so nothing is double-counted.
			res.FallbackSec += dt
			res.FallbackEnergyMJ += fbMW * dt
		} else {
			r.settle(s)
		}
		r.tick(s)
	}
	emitSpan(float64(n) * dt)
	if err := r.finish(res.HubUpSec); err != nil {
		return nil, err
	}
	cfg.Telemetry.Ledger.AddEnergyMJ(telemetry.PhoneFallback, res.FallbackEnergyMJ)

	res.HubWakes = bed.Hub.WakesSent()
	res.DeliveredWakes = r.delivered
	res.PushAttempts = r.pushAttempts
	res.Crash = inj.Stats()
	res.Supervisor = sup.Stats()
	res.Reprovision = bed.Manager.ReprovisionStats()
	if tr.RateHz > 0 {
		res.DetectionLatencySec = res.Supervisor.MeanDetectionTicks() / tr.RateHz
	}
	res.Stats = r.stats
	res.LinkEnergyMJ = r.linkMJ
	res.PhoneEnergyMJ = r.ph.EnergyMJ()
	res.HubEnergyMJ = r.hubMJ
	res.TotalMJ = res.PhoneEnergyMJ + res.FallbackEnergyMJ + res.HubEnergyMJ + res.LinkEnergyMJ
	if dur := tr.Duration().Seconds(); dur > 0 {
		res.TotalAvgMW = res.TotalMJ / dur
	}
	return res, nil
}
