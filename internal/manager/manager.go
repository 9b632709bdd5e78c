package manager

import (
	"errors"
	"fmt"
	"sort"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
	"sidewinder/internal/telemetry"
)

// Event is delivered to a SensorEventListener when its wake-up condition
// is satisfied (paper §3.2 OnSensorEvent). It carries the admitted value,
// the hub-side sample index, and the hub's buffered raw data.
type Event struct {
	CondID      uint16
	Value       float64
	SampleIndex int64
	Data        map[core.SensorChannel][]float64
}

// Listener is the paper's SensorEventListener.
type Listener interface {
	OnSensorEvent(Event)
}

// ListenerFunc adapts a function to Listener.
type ListenerFunc func(Event)

// OnSensorEvent implements Listener.
func (f ListenerFunc) OnSensorEvent(e Event) { f(e) }

// pushState tracks an in-flight or settled condition push. irText keeps
// the compiled program so a push whose delivery failed can be re-sent.
type pushState struct {
	listener Listener
	irText   string
	acked    bool
	device   string
	err      error
}

// Manager is the phone-side SidewinderSensorManager (paper §3.1-3.3): it
// validates pipelines against the platform catalog, compiles them to the
// intermediate language, pushes them over the link, and dispatches wake
// events (with the hub's raw-data buffer) to registered listeners.
type Manager struct {
	cat    *core.Catalog
	ep     link.Port
	nextID uint16
	pushes map[uint16]*pushState
	// pendingData accumulates raw buffers that precede their wake frame.
	pendingData map[uint16]map[core.SensorChannel][]float64
	// dropped counts inbound frames discarded as undecodable or of an
	// unknown type — line noise or a peer bug, never fatal to the loop.
	dropped int

	// sup is the optional liveness supervisor (nil = trust the hub
	// blindly, the pre-supervision behavior). reprovisioning is true
	// while a post-crash re-push of the condition set is being settled.
	sup            *resilience.Supervisor
	reprovisioning bool
	reprov         ReprovisionStats
	reprovWire     []byte // scratch the tally measures each re-sent push in

	// adaptive holds the per-condition policy engines (adaptive.go):
	// started by EnableAdaptive, or threshold-only by a condition's first
	// Feedback verdict. A condition without one runs as pushed.
	adaptive map[uint16]*adaptState

	// ping is the heartbeat probe's payload, reused across probes:
	// SendLossy is done with it when it returns.
	ping [resilience.HeartbeatSize]byte

	// Telemetry handles, nil (no-op) until SetTelemetry attaches them.
	cWakes   *telemetry.Counter
	cDropped *telemetry.Counter
	trace    *telemetry.Stream
}

// ReprovisionStats accounts the wire cost of post-crash recovery.
type ReprovisionStats struct {
	// Passes counts re-provisioning rounds started (one per recovery,
	// plus one per hub re-death mid-recovery).
	Passes int
	// Frames and Bytes count the config pushes re-sent and their encoded
	// wire size, excluding the ARQ envelope and any retransmissions
	// (those are already in the link layer's overhead accounting).
	Frames int
	Bytes  int
}

// SetTelemetry attaches phone-side telemetry: counters
// (phone.wakes_delivered, phone.rx_dropped_frames) and a trace stream for
// wake.delivered instants. Any argument may be nil.
func (m *Manager) SetTelemetry(reg *telemetry.Registry, trace *telemetry.Stream) {
	m.cWakes = reg.Counter("phone.wakes_delivered")
	m.cDropped = reg.Counter("phone.rx_dropped_frames")
	m.trace = trace
}

// dropFrame accounts one discarded inbound frame.
func (m *Manager) dropFrame() {
	m.dropped++
	m.cDropped.Inc()
}

// AttachSupervisor installs the hub liveness watchdog. Service then
// drives it: inbound traffic counts as evidence of life, the supervisor's
// pings go out as heartbeat-carrying MsgPing frames, and when it declares
// the hub recovered the manager re-pushes every registered condition
// before reporting the hub Up again. Pass nil to detach.
func (m *Manager) AttachSupervisor(s *resilience.Supervisor) { m.sup = s }

// Supervisor returns the attached watchdog (nil when unsupervised).
func (m *Manager) Supervisor() *resilience.Supervisor { return m.sup }

// ReprovisionStats returns the recovery wire-cost tally.
func (m *Manager) ReprovisionStats() ReprovisionStats { return m.reprov }

// New builds a manager on one end of the link — a raw *link.Endpoint or
// a *link.ARQ for reliable delivery over a lossy wire. A nil catalog uses
// the platform default.
func New(ep link.Port, cat *core.Catalog) (*Manager, error) {
	if ep == nil {
		return nil, fmt.Errorf("manager: manager needs a link endpoint")
	}
	if cat == nil {
		cat = core.DefaultCatalog()
	}
	return &Manager{
		cat:         cat,
		ep:          ep,
		nextID:      1,
		pushes:      make(map[uint16]*pushState),
		pendingData: make(map[uint16]map[core.SensorChannel][]float64),
		adaptive:    make(map[uint16]*adaptState),
	}, nil
}

// Push validates and compiles the pipeline, registers the listener, and
// sends the IR program to the hub. The returned ID identifies the
// condition; call Service (or use Testbed) to collect the hub's response,
// then Status to check placement: the hub admits or rejects the
// condition against its device ladder.
func (m *Manager) Push(p *core.Pipeline, l Listener) (uint16, error) {
	if l == nil {
		return 0, fmt.Errorf("manager: a wake-up condition needs a SensorEventListener")
	}
	plan, err := p.Validate(m.cat)
	if err != nil {
		return 0, err
	}
	id := m.nextID
	m.nextID++
	irText := compileIR(plan)
	if err := m.ep.Send(link.Frame{Type: link.MsgConfigPush, Payload: encodeConfigPush(id, irText)}); err != nil {
		return 0, err
	}
	m.pushes[id] = &pushState{listener: l, irText: irText}
	return id, nil
}

// compileIR compiles a validated plan to the intermediate language.
func compileIR(plan *core.Plan) string { return ir.CompileToText(plan) }

// Repush re-sends a condition whose earlier push was reported undelivered
// (Status returned link.ErrLinkDown) or never answered, re-arming the
// link layer's bounded retry budget. The hub treats a duplicate push with
// identical IR as idempotent and simply re-acks.
func (m *Manager) Repush(id uint16) error {
	_, err := m.repush(id)
	return err
}

// repush is Repush returning the frame it sent.
func (m *Manager) repush(id uint16) (link.Frame, error) {
	st, ok := m.pushes[id]
	if !ok {
		return link.Frame{}, fmt.Errorf("manager: unknown condition %d", id)
	}
	st.acked = false
	st.err = nil
	f := link.Frame{Type: link.MsgConfigPush, Payload: encodeConfigPush(id, st.irText)}
	return f, m.ep.Send(f)
}

// Remove unloads a condition from the hub and forgets its listener.
func (m *Manager) Remove(id uint16) error {
	if _, ok := m.pushes[id]; !ok {
		return fmt.Errorf("manager: unknown condition %d", id)
	}
	if err := m.ep.Send(link.Frame{Type: link.MsgRemove, Payload: encodeRemove(id)}); err != nil {
		return err
	}
	delete(m.pushes, id)
	delete(m.pendingData, id)
	delete(m.adaptive, id)
	return nil
}

// Service ticks the link (driving ARQ retransmissions), settles any
// frames the link abandoned, and drains inbound frames — settling pushes
// and dispatching wake callbacks. A frame that fails to decode is counted
// (DroppedFrames) and skipped, never fatal: over a lossy link such frames
// are expected, and over a perfect link they indicate a peer bug the
// manager should survive.
func (m *Manager) Service() error {
	m.ep.Tick()
	m.reapDead()
	for {
		f, ok := m.ep.Receive()
		if !ok {
			break
		}
		// Any decodable inbound frame is evidence the hub is alive; pongs
		// carry richer evidence and report through ObservePong instead.
		if f.Type != link.MsgPong {
			m.sup.ObserveTraffic()
		}
		switch f.Type {
		case link.MsgConfigAck:
			id, device, err := decodeIDText(f.Payload)
			if err != nil {
				m.dropFrame()
				continue
			}
			if st := m.pushes[id]; st != nil {
				st.acked = true
				st.device = device
				if as := m.adaptive[id]; as != nil {
					as.settleAck()
				}
			}
		case link.MsgConfigError:
			id, msg, err := decodeIDText(f.Payload)
			if err != nil {
				m.dropFrame()
				continue
			}
			if st := m.pushes[id]; st != nil {
				if as := m.adaptive[id]; as != nil && as.pending != nil {
					// The hub rejected an adaptive update and kept the
					// previous program running; fall back in lockstep and
					// clamp the policy so the rung is not retried.
					m.rollbackAdaptation(id, st, as)
					st.acked = true
					continue
				}
				st.acked = true
				st.err = fmt.Errorf("manager: hub rejected condition %d: %s", id, msg)
			}
		case link.MsgData:
			id, ch, samples, err := decodeData(f.Payload)
			if err != nil {
				m.dropFrame()
				continue
			}
			if m.pendingData[id] == nil {
				m.pendingData[id] = make(map[core.SensorChannel][]float64)
			}
			m.pendingData[id][ch] = samples
		case link.MsgWake:
			id, value, sampleIdx, err := decodeWake(f.Payload)
			if err != nil {
				m.dropFrame()
				continue
			}
			st := m.pushes[id]
			if st == nil || st.listener == nil {
				continue // condition was removed; drop the late wake
			}
			ev := Event{CondID: id, Value: value, SampleIndex: sampleIdx, Data: m.pendingData[id]}
			delete(m.pendingData, id)
			m.cWakes.Inc()
			m.trace.Instant2("wake.delivered", "phone", "cond", float64(id), "value", value)
			st.listener.OnSensorEvent(ev)
		case link.MsgPong:
			hb, err := resilience.DecodeHeartbeat(f.Payload)
			if err != nil {
				m.dropFrame()
				continue
			}
			m.sup.ObservePong(hb)
		default:
			m.dropFrame()
		}
	}
	return m.superviseTick()
}

// superviseTick advances the liveness watchdog one Service pass: sends
// any probe it asks for, starts a re-provisioning round when it latches
// one, and settles an in-flight round. A no-op without a supervisor.
func (m *Manager) superviseTick() error {
	if m.sup == nil {
		return nil
	}
	if act := m.sup.Tick(); act.Ping {
		// Probes bypass the ARQ: a queue of retransmissions to a dead hub
		// must not delay (or reorder) liveness traffic, and a lost ping is
		// just one more miss.
		copy(m.ping[:], resilience.Heartbeat{Seq: act.Seq}.Encode())
		if err := m.ep.SendLossy(link.Frame{Type: link.MsgPing, Payload: m.ping[:]}); err != nil {
			return err
		}
	}
	if m.sup.TakeReprovision() {
		if err := m.reprovisionAll(); err != nil {
			return err
		}
	}
	if m.reprovisioning && m.sup.State() == resilience.Recovering {
		if err := m.settleReprovision(); err != nil {
			return err
		}
	}
	return nil
}

// reprovisionAll re-pushes every registered condition after a hub crash.
// The hub's transmitter restarted at sequence zero, so the receive side
// must resynchronize first or every post-reboot frame would be suppressed
// as a duplicate. Pushes go out in ID order — deterministic recovery
// traffic for reproducible experiments.
func (m *Manager) reprovisionAll() error {
	if rs, ok := m.ep.(interface{ Resync() }); ok {
		rs.Resync()
	}
	m.reprov.Passes++
	ids := make([]uint16, 0, len(m.pushes))
	for id := range m.pushes {
		ids = append(ids, id)
	}
	m.trace.Instant1("supervisor.reprovision", "supervisor", "conds", float64(len(ids)))
	if len(ids) == 0 {
		m.sup.ObserveReprovisioned()
		m.reprovisioning = false
		return nil
	}
	m.reprovisioning = true
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := m.reprovision(id); err != nil {
			return err
		}
	}
	return nil
}

// reprovision re-sends one condition's config push and tallies it.
func (m *Manager) reprovision(id uint16) error {
	f, err := m.repush(id)
	if err != nil {
		return err
	}
	m.reprov.Frames++
	if wire, err := link.AppendEncode(m.reprovWire[:0], f); err == nil {
		m.reprovWire = wire
		m.reprov.Bytes += len(wire)
	}
	return nil
}

// settleReprovision checks whether the recovery round has completed:
// every condition acked (or definitively rejected) by the hub. A push the
// link abandoned is re-armed — but only while the supervisor still
// believes the hub is Recovering; once it drops back to Down, re-pushing
// would just burn the retry budget against a silent peer.
func (m *Manager) settleReprovision() error {
	settled := true
	for id, st := range m.pushes {
		if !st.acked {
			settled = false
			continue
		}
		if st.err != nil && errors.Is(st.err, link.ErrLinkDown) {
			if err := m.reprovision(id); err != nil {
				return err
			}
			settled = false
		}
	}
	if settled {
		m.sup.ObserveReprovisioned()
		m.reprovisioning = false
	}
	return nil
}

// reapDead settles frames the ARQ layer abandoned after exhausting its
// retransmission budget. A dead config push fails the pending Status with
// link.ErrLinkDown so the caller can Repush; other dead frames carry no
// manager-side state to settle.
func (m *Manager) reapDead() {
	td, ok := m.ep.(interface{ TakeDead() []link.Frame })
	if !ok {
		return
	}
	for _, f := range td.TakeDead() {
		if f.Type != link.MsgConfigPush {
			continue
		}
		id, _, err := decodeConfigPush(f.Payload)
		if err != nil {
			continue
		}
		if st := m.pushes[id]; st != nil && !st.acked {
			st.acked = true
			st.err = fmt.Errorf("manager: condition %d: config push undelivered: %w", id, link.ErrLinkDown)
		}
	}
}

// DroppedFrames returns how many inbound frames this manager discarded as
// undecodable or of an unknown type.
func (m *Manager) DroppedFrames() int { return m.dropped }

// Status reports the outcome of a push: the selected device once acked,
// or the hub's rejection error.
func (m *Manager) Status(id uint16) (device string, ready bool, err error) {
	st, ok := m.pushes[id]
	if !ok {
		return "", false, fmt.Errorf("manager: unknown condition %d", id)
	}
	if !st.acked {
		return "", false, nil
	}
	return st.device, true, st.err
}

// Catalog returns the platform catalog the manager validates against.
func (m *Manager) Catalog() *core.Catalog { return m.cat }
