package sim

import (
	"sidewinder/internal/apps"
	"sidewinder/internal/link"
	"sidewinder/internal/manager"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// LossyLinkConfig parameterizes a replay of one application's wake-up
// condition through the full manager/link/hub stack with fault injection
// on the wire.
type LossyLinkConfig struct {
	// Fault is the injected fault regime (both directions; the testbed
	// derives a distinct stream for each).
	Fault link.FaultConfig
	// ARQ, when non-nil, protects the wire with the stop-and-wait
	// reliability layer. nil replays raw frames, measuring what the
	// faults actually cost an unprotected link.
	ARQ *link.ARQConfig

	// Telemetry, when enabled, instruments the whole assembly: link and
	// ARQ counters, frame/wake trace events, phone state transitions, and
	// an energy ledger attributing phone, hub and wire (first-transmission
	// vs retransmission) energy. The zero Set changes nothing.
	Telemetry telemetry.Set
}

// LossyLinkResult reports delivery and energy outcomes of one replay.
type LossyLinkResult struct {
	HubWakes        int     // wake frames the hub handed to the link
	DeliveredWakes  int     // wake events that reached the listener
	DuplicateWakes  int     // events delivered more than once (must be 0)
	DeliveredRecall float64 // DeliveredWakes / HubWakes (1 when no wakes)
	PushAttempts    int     // config pushes needed to load the condition
	Stats           manager.LinkStats
	LinkBusySec     float64 // wire occupancy including retransmissions
	LinkEnergyMJ    float64 // LinkBusySec × link.UARTActiveMW
	LinkAvgMW       float64 // link energy averaged over the trace duration

	// Phone-side accounting: delivered wake events drive a Nexus 4 power
	// state machine (wake on delivery, sleep after an idle hold), so the
	// replay also yields the phone energy the surviving wake-ups cost.
	PhoneEnergyMJ float64
	PhoneWakeUps  int
	// HubEnergyMJ is the hub device's constant draw over the trace.
	HubEnergyMJ float64
}

// LossyLinkRun replays an application's wake-up condition over a faulty
// serial link and measures what survives: how many hub-side wake events
// reach the phone, whether any arrive twice, and what the link traffic —
// retransmissions included — costs in energy.
func LossyLinkRun(tr *sensor.Trace, app *apps.App, cfg LossyLinkConfig) (*LossyLinkResult, error) {
	fault := cfg.Fault
	r, err := startTestbed(tr, app, manager.TestbedConfig{
		Fault:     &fault,
		ARQ:       cfg.ARQ,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}

	// Replay the trace through the hub, all of the condition's channels
	// in lockstep, pumping the link quiet after each sample.
	n := tr.Len()
	for s := 0; s < n; s++ {
		r.cur = s
		if err := r.feed(s, r.bed.Feed); err != nil {
			return nil, err
		}
		r.settle(s)
		r.tick(s)
	}
	if err := r.finish(r.ph.TotalSeconds()); err != nil {
		return nil, err
	}

	res := &LossyLinkResult{
		HubWakes:       r.bed.Hub.WakesSent(),
		DeliveredWakes: r.delivered,
		DuplicateWakes: r.duplicates,
		PushAttempts:   r.pushAttempts,
		Stats:          r.stats,
		LinkBusySec:    r.stats.BusySeconds,
		LinkEnergyMJ:   r.linkMJ,
		PhoneEnergyMJ:  r.ph.EnergyMJ(),
		PhoneWakeUps:   r.ph.WakeUps(),
		HubEnergyMJ:    r.hubMJ,
	}
	if dur := tr.Duration().Seconds(); dur > 0 {
		res.LinkAvgMW = res.LinkEnergyMJ / dur
	}
	res.DeliveredRecall = 1
	if res.HubWakes > 0 {
		res.DeliveredRecall = float64(res.DeliveredWakes) / float64(res.HubWakes)
	}
	return res, nil
}
