package sim

import (
	"errors"
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/link"
	"sidewinder/internal/manager"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// The testbed replay CrashRun and LossyLinkRun share: one application's
// wake-up condition pushed through the full manager/link/hub stack
// (manager.Testbed, the paper's phone and hub joined by a UART, §3.4),
// with a passive phone that delivered wake events wake and the hold rule
// every strategy uses (wakeWindow) puts back to sleep. A testbedRun builds
// and loads the stack, offers the per-sample steps both runs take, and
// prices what every replay prices at the end; each run keeps its own
// per-sample loop and its own accounting.

// testbedBufSamples is the hub's per-channel raw-data ring in a testbed
// replay: a small ring keeps data frames short, which is also what a
// real memory-starved hub would do.
const testbedBufSamples = 32

// maxPushAttempts bounds config-push retries over a raw lossy wire; the
// ARQ path virtually always succeeds on the first attempt.
const maxPushAttempts = 25

// testbedRun is one testbed replay in progress.
type testbedRun struct {
	bed      *manager.Testbed
	tele     telemetry.Set
	clk      *telemetry.Clock
	names    []core.SensorChannel
	channels [][]float64 // trace samples per entry of names
	ph       *power.Phone
	w        *wakeWindow
	dt       float64
	cur      int // sample being replayed: wakes delivered now fire at it

	seen         map[int64]int // deliveries per hub sample index
	delivered    int           // wake events that reached the listener
	duplicates   int           // deliveries of an already delivered event
	pushAttempts int           // config pushes needed to load the condition

	// Set by finish.
	stats  manager.LinkStats
	linkMJ float64 // wire occupancy, retransmissions included
	hubMJ  float64 // the hub device's draw over the seconds finish is given
}

// startTestbed builds the testbed from cfg (the ring size and the clock
// are filled in here), attaches the passive phone, and pushes the app's
// wake-up condition, re-pushing as long as the link keeps eating the push
// or its ack, until the hub reports it loaded.
func startTestbed(tr *sensor.Trace, app *apps.App, cfg manager.TestbedConfig) (*testbedRun, error) {
	channels, err := traceChannels(tr, app.Channels, app.Name)
	if err != nil {
		return nil, err
	}
	cfg.BufSamples = testbedBufSamples
	cfg.Clock = &telemetry.Clock{}
	bed, err := manager.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	ph := power.NewPhone(power.Nexus4())
	phoneStream, _, _ := bed.Streams()
	tracePhoneTransitions(ph, phoneStream)
	r := &testbedRun{
		bed:      bed,
		tele:     cfg.Telemetry,
		clk:      cfg.Clock,
		names:    app.Channels,
		channels: channels,
		ph:       ph,
		w:        newWakeWindow(ph, tr.RateHz, 0, int(swIdleHoldSec*tr.RateHz)),
		dt:       1 / tr.RateHz,
		seen:     make(map[int64]int),
	}
	id, err := bed.Manager.Push(app.Wake, manager.ListenerFunc(r.deliver))
	if err != nil {
		return nil, err
	}
	for r.pushAttempts < maxPushAttempts {
		r.pushAttempts++
		if err := bed.Pump(); err != nil {
			return nil, err
		}
		_, ready, serr := bed.Manager.Status(id)
		if ready && serr == nil {
			return r, nil
		}
		if ready && serr != nil && !errors.Is(serr, link.ErrLinkDown) {
			return nil, serr // the hub actually rejected the program
		}
		if err := bed.Manager.Repush(id); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("sim: condition never loaded after %d push attempts", maxPushAttempts)
}

// deliver is the condition's listener: it counts the delivery and wakes
// the phone at the sample being replayed.
func (r *testbedRun) deliver(e manager.Event) {
	r.delivered++
	r.seen[e.SampleIndex]++
	if r.seen[e.SampleIndex] > 1 {
		r.duplicates++
	}
	r.w.fire(r.cur)
}

// feed hands sample s of every channel the trace still covers to send:
// the hub's own Feed, or the testbed's, which also pumps the link quiet.
func (r *testbedRun) feed(s int, send func(core.SensorChannel, float64) error) error {
	for i, ch := range r.names {
		if s >= len(r.channels[i]) {
			continue
		}
		if err := send(ch, r.channels[i][s]); err != nil {
			return err
		}
	}
	return nil
}

// settle applies the phone's hold rule at sample s and advances the
// phone by one sample.
func (r *testbedRun) settle(s int) {
	r.w.idle(s)
	r.ph.Advance(r.dt)
}

// tick moves the telemetry clock to the end of sample s.
func (r *testbedRun) tick(s int) { r.clk.SetSec(float64(s+1) * r.dt) }

// finish pumps the link quiet and prices the replay: the wire's occupancy
// and the hub device's constant draw over hubSec seconds. With telemetry
// it deposits the phone's per-state energy, the hub's draw and stage
// cycles, and the wire energy split into first transmission and ARQ
// overhead (retransmitted frames plus all ack traffic, priced at the
// testbed's baud rate; the two sum to linkMJ), then lays the hub's stage
// spans out on its stream.
func (r *testbedRun) finish(hubSec float64) error {
	if err := r.bed.Pump(); err != nil {
		return err
	}
	r.stats = r.bed.LinkStats()
	r.linkMJ = r.stats.BusySeconds * link.UARTActiveMW
	dev, placed := r.bed.Hub.Device()
	if placed {
		r.hubMJ = dev.ActivePowerMW * hubSec
	}
	if r.tele.Enabled() {
		led := r.tele.Ledger
		depositPhoneEnergy(led, r.ph)
		overhead := r.stats.PhoneARQ.OverheadBytes + r.stats.HubARQ.OverheadBytes
		retransMJ := float64(overhead*10) / manager.Baud * link.UARTActiveMW
		led.AddEnergyMJ(telemetry.LinkRetransmit, retransMJ)
		led.AddEnergyMJ(telemetry.LinkWire, r.linkMJ-retransMJ)
		if placed {
			prof := r.bed.Profile()
			prof.DepositHub(led, dev.ActivePowerMW, hubSec, dev.Cycles)
			_, hubStream, _ := r.bed.Streams()
			prof.EmitStageSpans(hubStream, dev.Cycles, dev.ClockHz)
		}
	}
	return nil
}
