package manager

import (
	"errors"
	"fmt"

	"sidewinder/internal/adapt"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
	"sidewinder/internal/telemetry"
)

// Testbed wires a Manager and a HubNode over a simulated UART and pumps
// both sides, giving examples and tests a synchronous view of the
// asynchronous architecture. It corresponds to the paper's prototype: a
// phone and a microcontroller joined by a serial cable (§3.4). The wire
// can optionally be made lossy (Fault) and protected by the stop-and-wait
// reliability layer (ARQ).
type Testbed struct {
	Manager *Manager
	Hub     *HubNode

	phoneRaw, hubRaw   *link.Endpoint
	phonePort, hubPort link.Port

	// Trace streams created when the config carries telemetry (all nil
	// otherwise). Strategies reuse phoneStream for power-state instants so
	// one track carries the whole phone timeline.
	phoneStream, hubStream, wireStream *telemetry.Stream
	profile                            *telemetry.InterpProfile
}

// Streams returns the testbed's trace streams (phone, hub, wire) — nil
// when the testbed was built without telemetry.
func (t *Testbed) Streams() (phone, hub, wire *telemetry.Stream) {
	return t.phoneStream, t.hubStream, t.wireStream
}

// Profile returns the hub interpreter's per-stage profile (nil without
// telemetry).
func (t *Testbed) Profile() *telemetry.InterpProfile { return t.profile }

// Baud is the testbed's serial rate in bits per second. Ten bits cross
// the wire per byte, so it also prices link traffic in wire time.
const Baud = 115200

// TestbedConfig tunes the testbed; zero values take defaults.
type TestbedConfig struct {
	Devices    []hub.Device // hub device ladder
	BufSamples int          // hub raw-data ring per channel (default 256)

	// Fault, when non-nil, installs deterministic fault injectors on
	// both transmit directions. The hub-to-phone direction uses
	// Fault.Seed+1 so the two streams differ but the whole assembly
	// stays reproducible. nil leaves the wire perfect — byte-identical
	// to the pre-fault-model behavior.
	Fault *link.FaultConfig

	// ARQ, when non-nil, wraps both endpoints in the stop-and-wait
	// reliability layer so config pushes and wake events survive the
	// injected faults. nil runs raw frames (the legacy behavior).
	ARQ *link.ARQConfig

	// Supervisor, when non-nil, attaches the hub liveness watchdog to the
	// manager: heartbeat probing, down detection, and automatic
	// re-provisioning on recovery. nil trusts the hub blindly (the legacy
	// behavior).
	Supervisor *resilience.SupervisorConfig

	// Telemetry, when enabled, instruments the whole assembly: link
	// counters and frame events, manager/hub counters and wake events,
	// and a per-stage interpreter profile on the hub. The zero Set
	// disables everything at zero hot-path cost.
	Telemetry telemetry.Set

	// Clock stamps trace events with simulated time. Required only when
	// Telemetry carries a tracer; the driving loop (strategy, experiment)
	// advances it.
	Clock *telemetry.Clock
}

// NewTestbed builds the full phone+hub assembly.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	phoneEnd, hubEnd, err := link.Pipe(Baud)
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		phoneFaults := *cfg.Fault
		if err := phoneEnd.SetFaults(phoneFaults); err != nil {
			return nil, err
		}
		hubFaults := *cfg.Fault
		hubFaults.Seed = cfg.Fault.Seed + 1
		if err := hubEnd.SetFaults(hubFaults); err != nil {
			return nil, err
		}
	}
	var phonePort, hubPort link.Port = phoneEnd, hubEnd
	if cfg.ARQ != nil {
		phonePort = link.NewARQ(phoneEnd, *cfg.ARQ)
		hubPort = link.NewARQ(hubEnd, *cfg.ARQ)
	}
	m, err := New(phonePort, nil)
	if err != nil {
		return nil, err
	}
	h, err := NewHubNode(hubPort, nil, cfg.Devices, cfg.BufSamples)
	if err != nil {
		return nil, err
	}
	if cfg.Supervisor != nil {
		m.AttachSupervisor(resilience.NewSupervisor(*cfg.Supervisor))
	}
	t := &Testbed{
		Manager:   m,
		Hub:       h,
		phoneRaw:  phoneEnd,
		hubRaw:    hubEnd,
		phonePort: phonePort,
		hubPort:   hubPort,
	}
	if cfg.Telemetry.Enabled() {
		reg := cfg.Telemetry.Metrics
		t.phoneStream = cfg.Telemetry.Tracer.Stream("phone", cfg.Clock)
		t.hubStream = cfg.Telemetry.Tracer.Stream("hub", cfg.Clock)
		t.wireStream = cfg.Telemetry.Tracer.Stream("wire", cfg.Clock)
		t.profile = telemetry.NewInterpProfile()
		phoneEnd.SetTelemetry(reg, "link.phone", t.wireStream)
		hubEnd.SetTelemetry(reg, "link.hub", t.wireStream)
		if pa, ok := phonePort.(*link.ARQ); ok {
			pa.SetTelemetry(reg, "link.phone", t.wireStream)
		}
		if ha, ok := hubPort.(*link.ARQ); ok {
			ha.SetTelemetry(reg, "link.hub", t.wireStream)
		}
		m.SetTelemetry(reg, t.phoneStream)
		h.SetTelemetry(reg, t.profile, t.hubStream)
		m.Supervisor().SetTelemetry(reg, t.phoneStream)
	}
	return t, nil
}

// Push pushes a wake-up condition end to end and returns its ID and the
// device the hub placed it on. If the link layer declares the push dead
// mid-flight (bounded ARQ retries exhausted), one automatic re-push
// re-arms the retry budget before giving up.
func (t *Testbed) Push(p *core.Pipeline, l Listener) (id uint16, device string, err error) {
	id, err = t.Manager.Push(p, l)
	if err != nil {
		return 0, "", err
	}
	if err := t.Pump(); err != nil {
		return 0, "", err
	}
	device, ready, err := t.Manager.Status(id)
	if err != nil && errors.Is(err, link.ErrLinkDown) {
		if err := t.Manager.Repush(id); err != nil {
			return 0, "", err
		}
		if err := t.Pump(); err != nil {
			return 0, "", err
		}
		device, ready, err = t.Manager.Status(id)
	}
	if err != nil {
		return 0, "", err
	}
	if !ready {
		return 0, "", fmt.Errorf("manager: hub did not answer the push")
	}
	return id, device, nil
}

// Remove unloads a condition end to end.
func (t *Testbed) Remove(id uint16) error {
	if err := t.Manager.Remove(id); err != nil {
		return err
	}
	return t.Pump()
}

// Feedback reports a wake-up verdict end to end: the policy engine's
// resulting program update, if any, is pumped to the hub before it
// returns, so the next sample already meets the tightened condition.
func (t *Testbed) Feedback(id uint16, falsePositive bool) error {
	if err := t.Manager.Feedback(id, falsePositive); err != nil {
		return err
	}
	return t.Pump()
}

// EnableAdaptive puts a pushed condition under adaptive management and
// pumps the program reset a restarted engine may push.
func (t *Testbed) EnableAdaptive(id uint16, cfg adapt.Config) error {
	if err := t.Manager.EnableAdaptive(id, cfg); err != nil {
		return err
	}
	if t.quiet() {
		return nil
	}
	return t.Pump()
}

// MissedWake reports a missed event end to end and applies any resulting
// re-parameterization push.
func (t *Testbed) MissedWake(id uint16) error {
	if err := t.Manager.ReportMissedWake(id); err != nil {
		return err
	}
	return t.Pump()
}

// Feed delivers one sensor sample to the hub and pumps any resulting wake
// callbacks to their listeners.
func (t *Testbed) Feed(ch core.SensorChannel, v float64) error {
	if err := t.Hub.Feed(ch, v); err != nil {
		return err
	}
	if t.quiet() {
		return nil
	}
	return t.Pump()
}

// maxPumpRounds bounds Pump. ARQ backoff caps at 16 ticks and retries at
// 8, so even a fully dead frame settles within ~130 rounds; the bound
// only guards against a protocol bug livelocking the loop.
const maxPumpRounds = 4096

// Pump services both sides until the link is quiet: nothing pending,
// nothing in flight, nothing delayed. With a lossy link this is where
// retransmission ticks happen.
func (t *Testbed) Pump() error {
	for i := 0; i < maxPumpRounds; i++ {
		if err := t.Hub.Service(); err != nil {
			return err
		}
		if err := t.Manager.Service(); err != nil {
			return err
		}
		if t.quiet() {
			return nil
		}
	}
	return fmt.Errorf("manager: link did not quiesce within %d pump rounds", maxPumpRounds)
}

// quiet reports that no frame is pending, in flight, or delayed in either
// direction. A crashed hub is silent, not busy: its link state is frozen
// (a hung CPU ticks nothing), so only the phone side can go quiet —
// otherwise a frame caught in flight by the crash would keep the pump
// spinning for the whole outage.
func (t *Testbed) quiet() bool {
	phoneQuiet := t.phonePort.Idle() && t.phonePort.Pending() == 0
	if t.Hub.Crashed() {
		return phoneQuiet
	}
	return phoneQuiet && t.hubPort.Idle() && t.hubPort.Pending() == 0
}

// LinkStats aggregates both directions' wire accounting, fault tallies,
// and (when the testbed runs the reliability layer) ARQ session counters.
type LinkStats struct {
	WireBytes   int     // total bytes both endpoints transmitted
	BusySeconds float64 // cumulative wire occupancy, both directions

	PhoneFaults, HubFaults link.FaultStats

	ARQ              bool // reliability layer active
	PhoneARQ, HubARQ link.ARQStats
	PhoneRxCorrupt   int
	HubRxCorrupt     int
	PhoneRxMalformed int
	HubRxMalformed   int
}

// LinkStats snapshots the link's accounting.
func (t *Testbed) LinkStats() LinkStats {
	s := LinkStats{
		WireBytes:        t.phoneRaw.SentBytes() + t.hubRaw.SentBytes(),
		BusySeconds:      t.phoneRaw.BusySeconds() + t.hubRaw.BusySeconds(),
		PhoneFaults:      t.phoneRaw.FaultStats(),
		HubFaults:        t.hubRaw.FaultStats(),
		PhoneRxCorrupt:   t.phoneRaw.RxCorrupt(),
		HubRxCorrupt:     t.hubRaw.RxCorrupt(),
		PhoneRxMalformed: t.phoneRaw.RxMalformed(),
		HubRxMalformed:   t.hubRaw.RxMalformed(),
	}
	if pa, ok := t.phonePort.(*link.ARQ); ok {
		s.ARQ = true
		s.PhoneARQ = pa.Stats()
	}
	if ha, ok := t.hubPort.(*link.ARQ); ok {
		s.HubARQ = ha.Stats()
	}
	return s
}
