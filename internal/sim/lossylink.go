package sim

import (
	"errors"
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/link"
	"sidewinder/internal/manager"
	"sidewinder/internal/power"
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
	// BufSamples is the hub's per-channel raw-data ring (default 32: a
	// small ring keeps data frames short, which is also what a real
	// memory-starved hub would do).
	BufSamples int

	// Telemetry, when enabled, instruments the whole assembly: link and
	// ARQ counters, frame/wake trace events, phone state transitions, and
	// an energy ledger attributing phone, hub and wire (first-transmission
	// vs retransmission) energy. The zero Set changes nothing.
	Telemetry telemetry.Set
	// TraceLabel prefixes the run's trace stream names.
	TraceLabel string
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

// lossyLinkBaud is the testbed's default serial rate, used to price ARQ
// overhead bytes when splitting wire energy into first-transmission and
// retransmission components.
const lossyLinkBaud = 115200

// maxPushAttempts bounds config-push retries over a raw lossy wire; the
// ARQ path virtually always succeeds on the first attempt.
const maxPushAttempts = 25

// LossyLinkRun replays an application's wake-up condition over a faulty
// serial link and measures what survives: how many hub-side wake events
// reach the phone, whether any arrive twice, and what the link traffic —
// retransmissions included — costs in energy.
func LossyLinkRun(tr *sensor.Trace, app *apps.App, cfg LossyLinkConfig) (*LossyLinkResult, error) {
	channels, err := traceChannels(tr, app.Channels, app.Name)
	if err != nil {
		return nil, err
	}
	bufSamples := cfg.BufSamples
	if bufSamples <= 0 {
		bufSamples = 32
	}
	fault := cfg.Fault
	clk := &telemetry.Clock{}
	bed, err := manager.NewTestbed(manager.TestbedConfig{
		BufSamples: bufSamples,
		Fault:      &fault,
		ARQ:        cfg.ARQ,
		Telemetry:  cfg.Telemetry,
		Clock:      clk,
		TraceLabel: cfg.TraceLabel,
	})
	if err != nil {
		return nil, err
	}

	// The phone rides along as a passive observer: delivered wake events
	// wake it, an idle hold puts it back to sleep. It never touches the
	// wire, so delivery results are identical with or without it.
	ph := power.NewPhone(power.Nexus4())
	phoneStream, _, _ := bed.Streams()
	tracePhoneTransitions(ph, phoneStream)
	lastDelivery := -1
	curSample := 0

	res := &LossyLinkResult{}
	seen := make(map[int64]int)
	id, err := bed.Manager.Push(app.Wake, manager.ListenerFunc(func(e manager.Event) {
		res.DeliveredWakes++
		seen[e.SampleIndex]++
		if seen[e.SampleIndex] > 1 {
			res.DuplicateWakes++
		}
		lastDelivery = curSample
		ph.RequestWake()
	}))
	if err != nil {
		return nil, err
	}

	// Load the condition, re-pushing as long as the link keeps eating
	// the push or its ack. The ARQ path settles this on the first
	// attempt; a raw wire at high error rates may need several.
	loaded := false
	for attempt := 0; attempt < maxPushAttempts; attempt++ {
		res.PushAttempts++
		if err := bed.Pump(); err != nil {
			return nil, err
		}
		_, ready, serr := bed.Manager.Status(id)
		if ready && serr == nil {
			loaded = true
			break
		}
		if ready && serr != nil && !errors.Is(serr, link.ErrLinkDown) {
			return nil, serr // the hub actually rejected the program
		}
		if err := bed.Manager.Repush(id); err != nil {
			return nil, err
		}
	}
	if !loaded {
		return nil, fmt.Errorf("sim: condition never loaded after %d push attempts", maxPushAttempts)
	}

	// Replay the trace through the hub, all of the condition's channels
	// in lockstep.
	n := tr.Len()
	dt := 1 / tr.RateHz
	hold := int(swIdleHoldSec * tr.RateHz)
	for s := 0; s < n; s++ {
		curSample = s
		for i, ch := range app.Channels {
			if s >= len(channels[i]) {
				continue
			}
			if err := bed.Feed(ch, channels[i][s]); err != nil {
				return nil, err
			}
		}
		if ph.UsableAwake() && lastDelivery >= 0 && s-lastDelivery > hold {
			ph.RequestSleep()
		}
		ph.Advance(dt)
		clk.SetSec(float64(s+1) * dt)
	}
	if err := bed.Pump(); err != nil {
		return nil, err
	}

	res.HubWakes = bed.Hub.WakesSent()
	res.Stats = bed.LinkStats()
	res.LinkBusySec = res.Stats.BusySeconds
	res.LinkEnergyMJ = res.LinkBusySec * link.UARTActiveMW
	if dur := tr.Duration().Seconds(); dur > 0 {
		res.LinkAvgMW = res.LinkEnergyMJ / dur
	}
	res.DeliveredRecall = 1
	if res.HubWakes > 0 {
		res.DeliveredRecall = float64(res.DeliveredWakes) / float64(res.HubWakes)
	}

	res.PhoneEnergyMJ = ph.EnergyMJ()
	res.PhoneWakeUps = ph.WakeUps()
	dur := ph.TotalSeconds()
	dev, placed := bed.Hub.Device()
	if placed {
		res.HubEnergyMJ = dev.ActivePowerMW * dur
	}

	if cfg.Telemetry.Enabled() {
		led := cfg.Telemetry.LedgerSink()
		depositPhoneEnergy(led, ph)
		if placed {
			depositHubEnergy(led, dev, dur, bed.Profile())
		}
		// Split wire energy: ARQ overhead bytes (retransmitted frames plus
		// all ack traffic) price the retransmission component; the rest is
		// first-transmission occupancy. The two sum to LinkEnergyMJ.
		overhead := res.Stats.PhoneARQ.OverheadBytes + res.Stats.HubARQ.OverheadBytes
		retransMJ := float64(overhead*10) / lossyLinkBaud * link.UARTActiveMW
		led.AddEnergyMJ(telemetry.LinkRetransmit, retransMJ)
		led.AddEnergyMJ(telemetry.LinkWire, res.LinkEnergyMJ-retransMJ)
		_, hubStream, _ := bed.Streams()
		if placed {
			emitStageSpans(hubStream, bed.Profile(), dev)
		}
	}
	return res, nil
}
