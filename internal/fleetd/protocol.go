// Package fleetd is the fleet-scale streaming ingest layer: a long-lived
// daemon (cmd/sidewinderd) that fronts thousands of concurrent simulated
// devices over real TCP sockets, and the load generator (cmd/fleetload)
// that replays a sim.FleetRun-style population against it.
//
// The paper's architecture puts a low-power hub in front of the phone so
// the expensive processor only runs when something interesting happened;
// at fleet scale the analogous system is a service that fronts the whole
// device population and treats wake events as the scarce, latency-critical
// unit of traffic. The package supplies:
//
//   - a device wire protocol carried in the existing internal/link frame
//     codec (byte-stuffed, CRC-16) with the same corrupt-vs-malformed
//     error taxonomy: line damage skips the frame and counts it,
//     a structurally malformed frame tears the connection down;
//
//   - a sharded device registry (per-shard mutex, FNV-1a device→shard
//     hashing) so registrations and event application from thousands of
//     connections never serialize on one lock;
//
//   - bounded per-shard ingest queues with explicit backpressure: a frame
//     that does not fit is refused with a shed acknowledgement, counted,
//     and billed to the energy ledger as phone-side fallback — an
//     acknowledged event is in a queue and is never silently dropped;
//
//   - batched energy-ledger deposits that conserve to 1e-9 against the
//     per-device totals, periodic atomic checkpoints, graceful drain on
//     SIGTERM, and a /metrics snapshot endpoint built on
//     internal/telemetry.
package fleetd

import (
	"encoding/binary"
	"fmt"
	"math"

	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
	"sidewinder/internal/telemetry"
)

// ProtocolVersion is the fleet ingest wire protocol version, carried in
// every resume so mismatched peers fail fast instead of misparsing.
const ProtocolVersion = 1

// Fleet message types. They extend the manager-hub protocol's link.MsgType
// space from 0x20 so the two vocabularies can never collide; the framing,
// CRC and error taxonomy are link's, unchanged. 0x20 and 0x21 stay
// unassigned: they were a session handshake that the resume replaced, so
// a peer that still opens with one is closed rather than misparsed.
const (
	// MsgDeviceWake reports one wake event (seq, emitting node, value).
	MsgDeviceWake link.MsgType = 0x22
	// MsgDeviceHeartbeat is the device liveness probe; its payload is the
	// resilience heartbeat codec (seq + device boot epoch), reused verbatim.
	MsgDeviceHeartbeat link.MsgType = 0x23
	// MsgDeviceEnergy deposits energy onto the daemon ledger: seq,
	// telemetry component, millijoules.
	MsgDeviceEnergy link.MsgType = 0x24
	// MsgEventAck acknowledges one ingested frame by seq, with a status
	// distinguishing accepted from shed (backpressure refusal).
	MsgEventAck link.MsgType = 0x25
	// MsgBye asks the server to flush the device and return its totals.
	MsgBye link.MsgType = 0x26
	// MsgByeAck carries the server-side device summary back.
	MsgByeAck link.MsgType = 0x27
	// MsgResume opens (or re-opens) a device session with the client's
	// last-acked sequence number, arming server-side dedup so retransmits
	// after a connection cut are idempotent.
	MsgResume link.MsgType = 0x28
	// MsgResumeAck confirms a resume: server epoch, assigned shard, and
	// the server's acked-seq watermark — the client retransmits everything
	// after it and nothing at or below it.
	MsgResumeAck link.MsgType = 0x29
)

// Ack statuses.
const (
	// AckAccepted: the event is durably queued; drain guarantees it is
	// applied to the registry and ledger before the daemon exits.
	AckAccepted byte = 0
	// AckShed: the shard queue was full. The event was NOT applied; the
	// refusal is counted (fleetd.sheds) and billed to phone.fallback, and
	// the device is expected to handle the event locally.
	AckShed byte = 1
	// AckDup: the frame's sequence number is at or below the device's
	// acked watermark — a retransmit of an event the server already
	// accepted. Nothing was re-applied; the client can resolve the frame
	// as accepted. This is what makes post-cut retransmission idempotent.
	AckDup byte = 2
)

// errTruncated builds a malformed-payload error that the link taxonomy
// classifies correctly: a CRC-valid frame whose payload disagrees with its
// declared shape is a sender bug, so it wraps link.ErrLengthMismatch and
// link.IsMalformed reports true.
func errTruncated(what string, got, want int) error {
	return fmt.Errorf("fleetd: %s payload: %w: %d bytes, want %d", what, link.ErrLengthMismatch, got, want)
}

// Resume opens every device session, carrying the client's resume state.
// A first contact sends LastAcked 0; a reconnect after a cut sends the
// highest sequence number the device saw acknowledged, so the server can
// report its own watermark back and retransmits stay idempotent.
type Resume struct {
	Version   byte
	DeviceID  uint64
	LastAcked uint32 // client-side: highest seq it saw acked (any status)
}

const resumeSize = 13

// Encode serializes the resume (1 + 8 + 4 bytes, little-endian).
func (r Resume) Encode() []byte {
	out := make([]byte, resumeSize)
	out[0] = r.Version
	binary.LittleEndian.PutUint64(out[1:9], r.DeviceID)
	binary.LittleEndian.PutUint32(out[9:13], r.LastAcked)
	return out
}

// DecodeResume parses a resume payload.
func DecodeResume(p []byte) (Resume, error) {
	if len(p) != resumeSize {
		return Resume{}, errTruncated("resume", len(p), resumeSize)
	}
	return Resume{
		Version:   p[0],
		DeviceID:  binary.LittleEndian.Uint64(p[1:9]),
		LastAcked: binary.LittleEndian.Uint32(p[9:13]),
	}, nil
}

// ResumeAck confirms a resume. AckedSeq is the server's authoritative
// dedup watermark for the device: every frame with seq <= AckedSeq is
// already accepted server-side (the client resolves them without
// resending); everything above it must be (re)transmitted.
type ResumeAck struct {
	Epoch    uint32 // server boot epoch (bumps across restarts)
	Shard    uint16 // registry shard the device hashed to
	AckedSeq uint32 // server acked-seq watermark for the device
}

const resumeAckSize = 10

// Encode serializes the resume ack.
func (r ResumeAck) Encode() []byte {
	out := make([]byte, resumeAckSize)
	binary.LittleEndian.PutUint32(out[0:4], r.Epoch)
	binary.LittleEndian.PutUint16(out[4:6], r.Shard)
	binary.LittleEndian.PutUint32(out[6:10], r.AckedSeq)
	return out
}

// DecodeResumeAck parses a resume-ack payload.
func DecodeResumeAck(p []byte) (ResumeAck, error) {
	if len(p) != resumeAckSize {
		return ResumeAck{}, errTruncated("resume-ack", len(p), resumeAckSize)
	}
	return ResumeAck{
		Epoch:    binary.LittleEndian.Uint32(p[0:4]),
		Shard:    binary.LittleEndian.Uint16(p[4:6]),
		AckedSeq: binary.LittleEndian.Uint32(p[6:10]),
	}, nil
}

// WakeEvent is one device wake: the scarce, latency-sensitive unit of
// fleet traffic.
type WakeEvent struct {
	Seq   uint32  // per-device frame sequence number
	Node  uint16  // pipeline node that emitted the wake
	Value float64 // emitted value
}

const wakeEventSize = 14

// Encode serializes the wake event.
func (w WakeEvent) Encode() []byte {
	out := make([]byte, wakeEventSize)
	binary.LittleEndian.PutUint32(out[0:4], w.Seq)
	binary.LittleEndian.PutUint16(out[4:6], w.Node)
	binary.LittleEndian.PutUint64(out[6:14], math.Float64bits(w.Value))
	return out
}

// DecodeWakeEvent parses a wake-event payload.
func DecodeWakeEvent(p []byte) (WakeEvent, error) {
	if len(p) != wakeEventSize {
		return WakeEvent{}, errTruncated("wake", len(p), wakeEventSize)
	}
	return WakeEvent{
		Seq:   binary.LittleEndian.Uint32(p[0:4]),
		Node:  binary.LittleEndian.Uint16(p[4:6]),
		Value: math.Float64frombits(binary.LittleEndian.Uint64(p[6:14])),
	}, nil
}

// EnergyEvent deposits simulated energy for one telemetry component.
type EnergyEvent struct {
	Seq       uint32
	Component telemetry.Component
	MJ        float64
}

const energyEventSize = 13

// Encode serializes the energy event.
func (e EnergyEvent) Encode() []byte {
	out := make([]byte, energyEventSize)
	binary.LittleEndian.PutUint32(out[0:4], e.Seq)
	out[4] = byte(e.Component)
	binary.LittleEndian.PutUint64(out[5:13], math.Float64bits(e.MJ))
	return out
}

// DecodeEnergyEvent parses an energy-event payload, rejecting unknown
// components and non-finite deposits (both would corrupt the ledger's
// conservation invariant).
func DecodeEnergyEvent(p []byte) (EnergyEvent, error) {
	if len(p) != energyEventSize {
		return EnergyEvent{}, errTruncated("energy", len(p), energyEventSize)
	}
	e := EnergyEvent{
		Seq:       binary.LittleEndian.Uint32(p[0:4]),
		Component: telemetry.Component(p[4]),
		MJ:        math.Float64frombits(binary.LittleEndian.Uint64(p[5:13])),
	}
	if int(e.Component) >= len(telemetry.Components()) {
		return EnergyEvent{}, fmt.Errorf("fleetd: energy payload: %w: unknown component %d",
			link.ErrLengthMismatch, e.Component)
	}
	if math.IsNaN(e.MJ) || math.IsInf(e.MJ, 0) || e.MJ < 0 {
		return EnergyEvent{}, fmt.Errorf("fleetd: energy payload: %w: non-finite or negative deposit %g",
			link.ErrLengthMismatch, e.MJ)
	}
	return e, nil
}

// EventAck acknowledges one frame by sequence number.
type EventAck struct {
	Seq    uint32
	Status byte
}

const eventAckSize = 5

// Encode serializes the ack.
func (a EventAck) Encode() []byte {
	out := make([]byte, eventAckSize)
	binary.LittleEndian.PutUint32(out[0:4], a.Seq)
	out[4] = a.Status
	return out
}

// DecodeEventAck parses an ack payload.
func DecodeEventAck(p []byte) (EventAck, error) {
	if len(p) != eventAckSize {
		return EventAck{}, errTruncated("ack", len(p), eventAckSize)
	}
	return EventAck{Seq: binary.LittleEndian.Uint32(p[0:4]), Status: p[4]}, nil
}

// Bye asks the server to flush and summarize the device.
type Bye struct {
	Seq uint32
}

const byeSize = 4

// Encode serializes the bye.
func (b Bye) Encode() []byte {
	out := make([]byte, byeSize)
	binary.LittleEndian.PutUint32(out, b.Seq)
	return out
}

// DecodeBye parses a bye payload.
func DecodeBye(p []byte) (Bye, error) {
	if len(p) != byeSize {
		return Bye{}, errTruncated("bye", len(p), byeSize)
	}
	return Bye{Seq: binary.LittleEndian.Uint32(p)}, nil
}

// ComponentMJ is one (component, energy) pair of a device summary.
type ComponentMJ struct {
	Component telemetry.Component
	MJ        float64
}

// DeviceSummary is the server's view of one device, returned in MsgByeAck
// so the sender can verify — without a side channel — that every
// acknowledged event landed.
type DeviceSummary struct {
	Seq        uint32 // echoes the bye's sequence number
	Wakes      uint64
	Heartbeats uint64
	Sheds      uint64
	ShedMJ     float64       // fallback energy billed for shed events
	Energy     []ComponentMJ // non-zero components, ascending component order
}

// Encode serializes the summary: seq u32 | wakes u64 | heartbeats u64 |
// sheds u64 | shedMJ f64 | count u8 | count × (component u8 | mj f64).
func (s DeviceSummary) Encode() []byte {
	out := make([]byte, 0, 37+9*len(s.Energy))
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], s.Seq)
	out = append(out, b[:4]...)
	for _, v := range []uint64{s.Wakes, s.Heartbeats, s.Sheds} {
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.ShedMJ))
	out = append(out, b[:]...)
	out = append(out, byte(len(s.Energy)))
	for _, e := range s.Energy {
		out = append(out, byte(e.Component))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.MJ))
		out = append(out, b[:]...)
	}
	return out
}

// DecodeDeviceSummary parses a bye-ack payload.
func DecodeDeviceSummary(p []byte) (DeviceSummary, error) {
	const head = 37
	if len(p) < head {
		return DeviceSummary{}, errTruncated("bye-ack", len(p), head)
	}
	s := DeviceSummary{
		Seq:        binary.LittleEndian.Uint32(p[0:4]),
		Wakes:      binary.LittleEndian.Uint64(p[4:12]),
		Heartbeats: binary.LittleEndian.Uint64(p[12:20]),
		Sheds:      binary.LittleEndian.Uint64(p[20:28]),
		ShedMJ:     math.Float64frombits(binary.LittleEndian.Uint64(p[28:36])),
	}
	n := int(p[36])
	if len(p) != head+9*n {
		return DeviceSummary{}, errTruncated("bye-ack energy list", len(p), head+9*n)
	}
	for i := 0; i < n; i++ {
		off := head + 9*i
		s.Energy = append(s.Energy, ComponentMJ{
			Component: telemetry.Component(p[off]),
			MJ:        math.Float64frombits(binary.LittleEndian.Uint64(p[off+1 : off+9])),
		})
	}
	return s, nil
}

// Heartbeat re-exports the resilience heartbeat codec for fleet frames:
// Seq doubles as the frame sequence number (acked like any other event)
// and Epoch carries the device's boot counter, exactly as on the
// manager-hub link.
type Heartbeat = resilience.Heartbeat

// DecodeHeartbeat parses a device heartbeat, mapping the resilience
// codec's error into the link taxonomy (malformed, not corrupt: the frame
// passed CRC, so the bytes are what the peer sent).
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	hb, err := resilience.DecodeHeartbeat(p)
	if err != nil {
		return Heartbeat{}, fmt.Errorf("fleetd: heartbeat payload: %w: %d bytes, want %d",
			link.ErrLengthMismatch, len(p), resilience.HeartbeatSize)
	}
	return hb, nil
}
