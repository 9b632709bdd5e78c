package manager

import (
	"fmt"
	"sort"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
	"sidewinder/internal/telemetry"
)

// condState is one loaded wake-up condition on the hub. plan is the bound
// program, executed exactly as pushed: threshold tuning (paper §7) happens
// on the phone and arrives as an in-place update. pushText is the IR
// exactly as pushed, so a retransmitted duplicate push can be recognized
// and re-acked idempotently.
type condState struct {
	id       uint16
	plan     *core.Plan
	pushText string
}

// HubNode is the hub-side runtime (paper §3.5): it receives IR programs
// over the link, binds them against its own copy of the platform catalog,
// selects a device capable of running the loaded set, interprets
// conditions over incoming sensor samples, and reports wake events with a
// buffer of recent raw data.
type HubNode struct {
	cat     *core.Catalog
	devices []hub.Device
	ep      link.Port

	conds  map[uint16]*condState
	device hub.Device
	placed bool

	// merged executes all loaded conditions as one DAG-compiled shared
	// graph (paper §7); mergedIDs maps its plan indices back to condition
	// IDs.
	merged    *interp.Merged
	mergedIDs []uint16

	// Raw-sample ring buffers per channel feed the post-wake-up data
	// delivery (paper §3.8: "Our current implementation passes a buffer
	// of raw sensor data to the application").
	rings   map[core.SensorChannel]*ring
	counts  map[core.SensorChannel]int64
	bufSize int

	// wakesSent counts wake frames handed to the link; dropped counts
	// inbound frames discarded as undecodable or of an unknown type.
	wakesSent int
	dropped   int

	// crash is the optional fault injector (nil = immortal hub). epoch is
	// the boot counter echoed in heartbeat pongs; a state-losing crash
	// bumps it, so the manager's supervisor can tell a rebooted hub from
	// one that merely went quiet.
	crash *resilience.CrashInjector
	epoch uint32

	// pong is the heartbeat reply's payload, reused across replies:
	// SendLossy is done with it when it returns.
	pong [resilience.HeartbeatSize]byte

	// Telemetry handles, nil (no-op) until SetTelemetry attaches them.
	// profile survives rebuild(): every new merged machine re-attaches it,
	// so per-stage attribution spans condition loads and removals.
	profile    *telemetry.InterpProfile
	cWakesSent *telemetry.Counter
	cDropped   *telemetry.Counter
	cDead      *telemetry.Counter
	trace      *telemetry.Stream
}

// SetTelemetry attaches hub-side telemetry: counters (hub.wake_frames_sent,
// hub.rx_dropped_frames, hub.dead_frames), a per-stage interpreter profile
// that survives condition-set rebuilds, and a trace stream for wake.sent /
// config.push instants. Any argument may be nil.
func (h *HubNode) SetTelemetry(reg *telemetry.Registry, profile *telemetry.InterpProfile, trace *telemetry.Stream) {
	h.cWakesSent = reg.Counter("hub.wake_frames_sent")
	h.cDropped = reg.Counter("hub.rx_dropped_frames")
	h.cDead = reg.Counter("hub.dead_frames")
	h.profile = profile
	h.trace = trace
	if h.merged != nil {
		h.merged.SetProfile(profile)
	}
}

// dropFrame accounts one discarded inbound frame.
func (h *HubNode) dropFrame() {
	h.dropped++
	h.cDropped.Inc()
}

// ring is a fixed-capacity sample buffer.
type ring struct {
	data []float64
	next int
	fill int
}

func newRing(capacity int) *ring { return &ring{data: make([]float64, capacity)} }

func (r *ring) push(v float64) {
	r.data[r.next] = v
	r.next = (r.next + 1) % len(r.data)
	if r.fill < len(r.data) {
		r.fill++
	}
}

// runs returns the buffered samples oldest-first as two runs of the
// ring's own storage: from the oldest sample to the array's end, then from
// its start up to the newest. Until the ring first wraps the second run is
// empty.
func (r *ring) runs() (older, newer []float64) {
	if r.fill < len(r.data) {
		return r.data[:r.fill], nil
	}
	return r.data[r.next:], r.data[:r.next]
}

// NewHubNode builds a hub runtime on one end of the link — a raw
// *link.Endpoint or a *link.ARQ for reliable delivery over a lossy wire.
// bufSamples is the per-channel raw-data ring capacity delivered on
// wake-up.
func NewHubNode(ep link.Port, cat *core.Catalog, devices []hub.Device, bufSamples int) (*HubNode, error) {
	if ep == nil {
		return nil, fmt.Errorf("manager: hub node needs a link endpoint")
	}
	if cat == nil {
		cat = core.DefaultCatalog()
	}
	if len(devices) == 0 {
		devices = hub.Devices()
	}
	if bufSamples <= 0 {
		bufSamples = 256
	}
	return &HubNode{
		cat:     cat,
		devices: devices,
		ep:      ep,
		conds:   make(map[uint16]*condState),
		rings:   make(map[core.SensorChannel]*ring),
		counts:  make(map[core.SensorChannel]int64),
		bufSize: bufSamples,
		epoch:   1,
	}, nil
}

// SetCrash installs a crash injector (nil clears it). Each Service pass
// ticks the injector; on a state-losing onset the hub drops every loaded
// condition, its sample buffers and its link state, and comes back with
// the next boot epoch — exactly what a real microcontroller reset does.
func (h *HubNode) SetCrash(c *resilience.CrashInjector) { h.crash = c }

// Epoch returns the hub's current boot epoch (1 at first boot).
func (h *HubNode) Epoch() uint32 { return h.epoch }

// Crashed reports whether the hub is currently down.
func (h *HubNode) Crashed() bool { return h.crash.Down() }

// reboot wipes the pipeline the way a CPU reset does: pushed conditions,
// merged machine, sample rings and counts all vanish, the boot epoch
// advances, and the link layer (if it supports Reboot) loses its buffers
// and sequence state.
func (h *HubNode) reboot() {
	h.conds = make(map[uint16]*condState)
	h.merged = nil
	h.mergedIDs = nil
	h.rings = make(map[core.SensorChannel]*ring)
	h.counts = make(map[core.SensorChannel]int64)
	h.placed = false
	h.device = hub.Device{}
	h.epoch++
	if rb, ok := h.ep.(interface{ Reboot() }); ok {
		rb.Reboot()
	}
	h.trace.Instant1("hub.reboot", "hub", "epoch", float64(h.epoch))
}

// Device returns the currently selected microcontroller (zero Device and
// false before any condition is placed).
func (h *HubNode) Device() (hub.Device, bool) { return h.device, h.placed }

// Loaded returns the number of active conditions.
func (h *HubNode) Loaded() int { return len(h.conds) }

// Service ticks the link (driving ARQ retransmissions) and drains inbound
// frames: config pushes, removals, pings. A frame whose payload fails to
// decode is counted (DroppedFrames) and skipped — line noise and peer
// bugs must not kill the hub loop. Only internal failures (a broken
// rebuild) are returned.
//
// With a crash injector installed, each pass first advances the fault
// clock. A crashed hub is a silent one: it neither ticks its link (the
// CPU is stopped, so no retransmission timers run) nor acknowledges
// inbound traffic — whatever arrives is discarded unacked, exactly as a
// dead UART would overrun.
func (h *HubNode) Service() error {
	if tr := h.crash.Tick(); tr.Onset && tr.Kind.LosesState() {
		h.reboot()
	}
	if h.crash.Down() {
		if bh, ok := h.ep.(interface{ Blackhole() int }); ok {
			bh.Blackhole()
		}
		return nil
	}
	h.ep.Tick()
	if td, ok := h.ep.(interface{ TakeDead() []link.Frame }); ok {
		// A dead wake/data frame cannot be un-fired; count it so
		// experiments can see undelivered events.
		if n := len(td.TakeDead()); n > 0 {
			h.cDead.Add(int64(n))
		}
	}
	for {
		f, ok := h.ep.Receive()
		if !ok {
			return nil
		}
		switch f.Type {
		case link.MsgConfigPush:
			if err := h.handlePush(f.Payload); err != nil {
				return err
			}
		case link.MsgRemove:
			id, err := decodeRemove(f.Payload)
			if err != nil {
				h.dropFrame()
				continue
			}
			delete(h.conds, id)
			if err := h.rebuild(); err != nil {
				return err
			}
		case link.MsgPing:
			// A heartbeat ping gets its sequence echoed along with this
			// hub's boot epoch. Pongs ride outside the ARQ — liveness
			// probes must not queue behind a retransmission backlog.
			hb, err := resilience.DecodeHeartbeat(f.Payload)
			if err != nil {
				h.dropFrame()
				continue
			}
			copy(h.pong[:], resilience.Heartbeat{Seq: hb.Seq, Epoch: h.epoch}.Encode())
			if err := h.ep.SendLossy(link.Frame{Type: link.MsgPong, Payload: h.pong[:]}); err != nil {
				return err
			}
		default:
			h.dropFrame()
		}
	}
}

// handlePush parses, binds and places one pushed condition, replying with
// an ack (device name) or an error. Placement accounts for DAG sharing:
// the whole loaded set is merged (paper §7) and the merged demand placed.
// A push for a resident condition is an in-place update (the phone
// re-parameterized it, adaptive sensing): the new program replaces the old
// one and the condition keeps its raw-data rings. Either way a failed
// rebuild restores the previous set, which was feasible, so a push can
// never take down a running set.
func (h *HubNode) handlePush(payload []byte) error {
	id, irText, err := decodeConfigPush(payload)
	if err != nil {
		// Too mangled even to address a MsgConfigError reply; the
		// manager recovers by timeout + Repush.
		h.dropFrame()
		return nil
	}
	ack := func() error {
		return h.ep.Send(link.Frame{Type: link.MsgConfigAck, Payload: encodeIDText(id, h.device.Name)})
	}
	fail := func(cause error) error {
		return h.ep.Send(link.Frame{Type: link.MsgConfigError, Payload: encodeIDText(id, cause.Error())})
	}
	prev, resident := h.conds[id]
	if resident && prev.pushText == irText {
		// Retransmitted push whose ack was lost: re-ack, don't
		// double-load.
		return ack()
	}
	plan, err := ir.ParseAndBind(irText, h.cat)
	if err != nil {
		return fail(err)
	}
	h.conds[id] = &condState{id: id, plan: plan, pushText: irText}
	if err := h.rebuild(); err != nil {
		if resident {
			h.conds[id] = prev
		} else {
			delete(h.conds, id)
		}
		if rerr := h.rebuild(); rerr != nil {
			return fmt.Errorf("manager: hub cannot restore previous condition set: %w", rerr)
		}
		return fail(err)
	}
	for _, ch := range plan.Channels {
		if h.rings[ch] == nil {
			h.rings[ch] = newRing(h.bufSize)
		}
	}
	if resident {
		h.trace.Instant1("config.update", "hub", "cond", float64(id))
	}
	return ack()
}

// rebuild reconstructs the merged machine and re-places the set on the
// cheapest feasible device. With no conditions loaded it clears the state.
func (h *HubNode) rebuild() error {
	if len(h.conds) == 0 {
		h.merged = nil
		h.mergedIDs = nil
		h.placed = false
		return nil
	}
	ids := make([]uint16, 0, len(h.conds))
	for id := range h.conds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	plans := make([]*core.Plan, len(ids))
	for i, id := range ids {
		plans[i] = h.conds[id].plan
	}
	fOps, iOps, mem := ir.Demand(ir.CompileOptions{}, plans...)
	dev, err := hub.SelectDeviceForDemand(h.devices, fOps, iOps, mem)
	if err != nil {
		return err
	}
	// The resident set executes as one DAG-compiled shared plan: subgraphs
	// identical across conditions (and the folds/fusions the compile pass
	// applies) run once, matching the demand the device was selected on.
	sp, err := ir.CompilePlans(h.cat, ir.CompileOptions{}, plans...)
	if err != nil {
		return err
	}
	merged, err := interp.NewShared(interp.Float64, sp)
	if err != nil {
		return err
	}
	merged.SetProfile(h.profile)
	h.merged = merged
	h.mergedIDs = ids
	h.device = dev
	h.placed = true
	return nil
}

// Feed delivers one raw sensor sample to the merged condition set.
// Satisfied conditions emit a data buffer followed by a wake frame.
func (h *HubNode) Feed(ch core.SensorChannel, v float64) error {
	if h.crash.Down() {
		// A crashed hub samples nothing; the event, if any, is gone
		// unless phone-side fallback sensing covers the window.
		return nil
	}
	if r := h.rings[ch]; r != nil {
		r.push(v)
	}
	h.counts[ch]++
	if h.merged == nil {
		return nil
	}
	for _, wake := range h.merged.PushSample(ch, v) {
		id := h.mergedIDs[wake.Plan]
		c := h.conds[id]
		// Raw data first so the manager has it when the wake callback
		// fires.
		for _, pc := range c.plan.Channels {
			if r := h.rings[pc]; r != nil {
				// A fresh payload: a reliable port keeps it until acked.
				older, newer := r.runs()
				payload := encodeData(c.id, pc, older, newer)
				if err := h.ep.Send(link.Frame{Type: link.MsgData, Payload: payload}); err != nil {
					return err
				}
			}
		}
		payload := encodeWake(c.id, wake.Value, h.counts[ch]-1)
		if err := h.ep.Send(link.Frame{Type: link.MsgWake, Payload: payload}); err != nil {
			return err
		}
		h.wakesSent++
		h.cWakesSent.Inc()
		h.trace.Instant2("wake.sent", "hub", "cond", float64(c.id), "value", wake.Value)
	}
	return nil
}

// WakesSent returns how many wake frames the hub has handed to the link.
// Comparing it against listener callbacks measures delivery over a lossy
// wire.
func (h *HubNode) WakesSent() int { return h.wakesSent }

// DroppedFrames returns how many inbound frames this hub discarded as
// undecodable or of an unknown type.
func (h *HubNode) DroppedFrames() int { return h.dropped }

// Work returns the interpreter work of the merged condition set.
func (h *HubNode) Work() core.CostEstimate {
	if h.merged == nil {
		return core.CostEstimate{}
	}
	return h.merged.Work()
}

// SharedNodes reports how many plan nodes the DAG compile pass eliminated
// across the loaded set (paper §7): shared subgraphs (prefixes, interior
// stages, duplicate pipelines), folds and fusions.
func (h *HubNode) SharedNodes() int {
	if h.merged == nil {
		return 0
	}
	return h.merged.SharedNodes()
}
