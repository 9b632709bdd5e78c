// Package link simulates the serial connection between the phone and the
// low-power sensor hub (paper §3.4: a UART over the Nexus 4's audio-jack
// debugging interface). It provides:
//
//   - a byte-stuffed frame codec with CRC-16 integrity checking, the kind
//     of framing a real microcontroller UART protocol uses,
//
//   - an in-memory full-duplex Pipe with a configurable baud rate that
//     accounts transfer time and byte counts, so experiments can reason
//     about link occupancy (the paper notes the serial link suffices for
//     low-bit-rate sensors but a camera would need I²C or better),
//
//   - a deterministic, seedable fault injector (FaultConfig) modeling the
//     noise a real audio-jack UART suffers: bit flips, frame drops,
//     truncation, burst errors and delivery jitter, and
//
//   - a stop-and-wait ARQ reliability layer (ARQ) that recovers from those
//     faults with sequence numbers, acknowledgements, capped exponential
//     backoff and duplicate suppression.
package link

import (
	"errors"
	"fmt"
	"slices"

	"sidewinder/internal/telemetry"
)

// MsgType identifies a frame's purpose in the manager-hub protocol.
type MsgType byte

// Protocol message types.
const (
	// MsgConfigPush carries an intermediate-language program from the
	// sensor manager to the hub (paper §3.3).
	MsgConfigPush MsgType = 0x01
	// MsgConfigAck confirms a successful bind; the payload names the
	// selected device.
	MsgConfigAck MsgType = 0x02
	// MsgConfigError reports a failed parse/bind/placement.
	MsgConfigError MsgType = 0x03
	// MsgRemove unloads a condition by ID.
	MsgRemove MsgType = 0x04
	// MsgWake signals a satisfied wake-up condition.
	MsgWake MsgType = 0x05
	// MsgData carries a buffer of raw sensor data to the application.
	MsgData MsgType = 0x06
	// MsgPing/MsgPong are the link liveness check.
	MsgPing MsgType = 0x07
	MsgPong MsgType = 0x08
	// 0x09 is retired: it carried wake-up verdicts to the hub, and
	// threshold tuning now runs on the phone. A hub drops such a frame as
	// an unknown type.

	// MsgArqData and MsgArqAck are the ARQ transport frames: a reliable
	// frame travels as [seq u8 | inner type u8 | inner payload] and is
	// confirmed by an ack carrying the same sequence number.
	MsgArqData MsgType = 0x10
	MsgArqAck  MsgType = 0x11
)

// Frame is one protocol unit.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// Framing constants: HDLC-style byte stuffing.
const (
	flagByte   = 0x7E
	escapeByte = 0x7D
	escapeXor  = 0x20
)

// Decode-error taxonomy. Line damage (a failed CRC, or a frame cut short
// by noise) is transient — the right reaction is "retry", which the ARQ
// layer does automatically. A length declaration that disagrees with a
// frame whose CRC *passed* means the peer encoded nonsense: retrying
// reproduces the same bytes, so consumers must fail the operation instead.
var (
	// ErrCRC reports a corrupted frame (checksum mismatch).
	ErrCRC = errors.New("link: CRC mismatch")
	// ErrShortFrame reports a frame body below the minimum 5 bytes
	// (type + length + CRC), typically a truncated transmission.
	ErrShortFrame = errors.New("link: frame too short")
	// ErrLengthMismatch reports a CRC-valid frame whose declared payload
	// length disagrees with the bytes received — a sender-side bug, not
	// line noise.
	ErrLengthMismatch = errors.New("link: length mismatch")
	// ErrLinkDown reports that the ARQ layer exhausted its bounded
	// retransmissions without an acknowledgement.
	ErrLinkDown = errors.New("link: delivery failed after bounded retransmissions")
	// ErrPayloadTooLarge reports a frame whose payload exceeds the 16-bit
	// length field — a caller bug surfaced as an error, never a panic.
	ErrPayloadTooLarge = errors.New("link: payload too large")
)

// IsMalformed reports whether a decode error indicates a well-transmitted
// but wrongly encoded frame (retrying cannot help).
func IsMalformed(err error) bool { return errors.Is(err, ErrLengthMismatch) }

// UARTActiveMW is the modeled draw of the audio-jack UART bridge while the
// line is busy (driver + level shifting on both ends). Experiments price
// link occupancy with it, so every retransmitted frame costs real
// simulated milliwatts.
const UARTActiveMW = 12.0

// crcTable holds the CRC-16/CCITT-FALSE remainder of each leading byte,
// so crc16 folds in a byte per lookup instead of eight shift steps.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc16 computes CRC-16/CCITT-FALSE over data.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// Encode serializes a frame with byte stuffing and CRC. The wire format is
// FLAG | stuffed(type, len16, payload, crc16) | FLAG. A payload beyond the
// 16-bit length field yields ErrPayloadTooLarge.
func Encode(f Frame) ([]byte, error) { return AppendEncode(nil, f) }

// AppendEncode appends f's wire bytes, as Encode builds them, to dst and
// returns the extended slice. It stuffs the header, payload and CRC in one
// pass, folding each byte into the CRC as it goes, so encoding into a
// reused buffer allocates nothing once the buffer has grown. On error dst
// comes back unchanged.
func AppendEncode(dst []byte, f Frame) ([]byte, error) {
	n := len(f.Payload)
	if n > 0xFFFF {
		return dst, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, n)
	}
	// Room for the flags, header and CRC with a few escapes.
	dst = slices.Grow(dst, n+13)
	dst = append(dst, flagByte)
	crc := uint16(0xFFFF)
	for _, b := range [3]byte{byte(f.Type), byte(n >> 8), byte(n)} {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
		dst = appendStuffed(dst, b)
	}
	for _, b := range f.Payload {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
		dst = appendStuffed(dst, b)
	}
	dst = appendStuffed(dst, byte(crc>>8))
	dst = appendStuffed(dst, byte(crc))
	return append(dst, flagByte), nil
}

// appendStuffed appends one body byte, escaping the two framing bytes.
func appendStuffed(dst []byte, b byte) []byte {
	if b == flagByte || b == escapeByte {
		return append(dst, escapeByte, b^escapeXor)
	}
	return append(dst, b)
}

// Decoder is a streaming frame decoder: feed it wire bytes, collect frames.
type Decoder struct {
	buf     []byte
	inFrame bool
	escaped bool
	slab    []byte // where short payloads are copied to (see ownCopy)

	corrupt   int // CRC failures and short frames (line damage)
	malformed int // length mismatches (sender bugs)
}

// Feed consumes wire bytes and returns completed frames, skipping noise
// between frames. A damaged frame does not stop the scan: later frames in
// the same call still decode, and the first error encountered is returned
// alongside them. Cumulative error counts are available via Corrupt and
// Malformed.
func (d *Decoder) Feed(data []byte) ([]Frame, error) { return d.FeedAppend(nil, data) }

// FeedAppend is Feed appending the completed frames to frames, so a caller
// that keeps its frame slice decodes without allocating one per call.
// Each decoded payload is a fresh copy the caller owns.
func (d *Decoder) FeedAppend(frames []Frame, data []byte) ([]Frame, error) {
	var firstErr error
	for _, b := range data {
		if b == flagByte {
			if d.inFrame && len(d.buf) > 0 {
				f, err := d.complete()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					frames = append(frames, f)
				}
				d.reset()
				// Stay in-frame: back-to-back frames share flags.
				d.inFrame = true
				continue
			}
			d.inFrame = true
			d.buf = d.buf[:0]
			d.escaped = false
			continue
		}
		if !d.inFrame {
			continue // inter-frame noise
		}
		if d.escaped {
			d.buf = append(d.buf, b^escapeXor)
			d.escaped = false
			continue
		}
		if b == escapeByte {
			d.escaped = true
			continue
		}
		d.buf = append(d.buf, b)
	}
	return frames, firstErr
}

// Corrupt returns the cumulative count of line-damaged frames (CRC
// failures and truncations) this decoder has rejected.
func (d *Decoder) Corrupt() int { return d.corrupt }

// Malformed returns the cumulative count of structurally malformed frames
// (CRC-valid but self-inconsistent) this decoder has rejected.
func (d *Decoder) Malformed() int { return d.malformed }

func (d *Decoder) reset() {
	d.buf = d.buf[:0]
	d.inFrame = false
	d.escaped = false
}

// complete validates the buffered frame body.
func (d *Decoder) complete() (Frame, error) {
	raw := d.buf
	if len(raw) < 5 {
		d.corrupt++
		return Frame{}, fmt.Errorf("%w (%d bytes)", ErrShortFrame, len(raw))
	}
	body, crcBytes := raw[:len(raw)-2], raw[len(raw)-2:]
	want := uint16(crcBytes[0])<<8 | uint16(crcBytes[1])
	if crc16(body) != want {
		d.corrupt++
		return Frame{}, ErrCRC
	}
	declared := int(body[1])<<8 | int(body[2])
	payload := body[3:]
	if declared != len(payload) {
		d.malformed++
		return Frame{}, fmt.Errorf("%w: declared %d, got %d", ErrLengthMismatch, declared, len(payload))
	}
	out := Frame{Type: MsgType(body[0])}
	if len(payload) > 0 {
		out.Payload = d.ownCopy(payload)
	}
	return out, nil
}

// Payloads of at most slabMax bytes (acks, heartbeats, wakes) are copied
// into a slab of slabSize bytes shared by the frames decoded after one
// another, so they cost no allocation each; longer ones get their own.
const (
	slabSize = 512
	slabMax  = 64
)

// ownCopy copies a decoded payload into memory no other frame uses. A
// copy carved from the slab has its capacity capped at its length, so
// appending to it reallocates instead of overwriting a neighbour.
func (d *Decoder) ownCopy(p []byte) []byte {
	if len(p) > slabMax {
		return slices.Clone(p)
	}
	if cap(d.slab)-len(d.slab) < len(p) {
		d.slab = make([]byte, 0, slabSize)
	}
	start := len(d.slab)
	d.slab = append(d.slab, p...)
	return d.slab[start:len(d.slab):len(d.slab)]
}

// Port is the frame channel the manager and hub node speak through. The
// raw *Endpoint implements it directly (Send is best-effort and instant);
// *ARQ implements it with reliable delivery for Send and pass-through for
// SendLossy.
type Port interface {
	// Send transmits a frame; over an ARQ port delivery is guaranteed
	// within the bounded retransmission budget or reported via TakeDead.
	// The port may keep the frame until it is delivered, so the caller
	// must not reuse its payload.
	Send(Frame) error
	// SendLossy transmits fire-and-forget: the frame may be lost. The
	// frame is on the wire (or lost) when SendLossy returns, so the caller
	// may reuse its payload.
	SendLossy(Frame) error
	// Receive pops the oldest delivered frame.
	Receive() (Frame, bool)
	// Tick advances timers: ARQ retransmissions and delayed-fault
	// delivery. A no-op for a fault-free raw endpoint.
	Tick()
	// Idle reports that the port has no in-flight outbound work.
	Idle() bool
	// Pending returns the number of frames ready (or queued) for Receive.
	Pending() int
}

// frameQueue is a FIFO of frames that keeps its backing array: a pop
// advances head, the queue rewinds to the array's start whenever it
// drains, and an append that finds the array full slides the live frames
// down before growing it.
type frameQueue struct {
	buf  []Frame
	head int
}

func (q *frameQueue) len() int { return len(q.buf) - q.head }

// compact makes room at the tail by sliding the live frames down, when
// popped slots sit at the front of a full array.
func (q *frameQueue) compact() {
	if q.head == 0 || len(q.buf) < cap(q.buf) {
		return
	}
	n := copy(q.buf, q.buf[q.head:])
	clear(q.buf[n:])
	q.buf, q.head = q.buf[:n], 0
}

func (q *frameQueue) push(f Frame) {
	q.compact()
	q.buf = append(q.buf, f)
}

func (q *frameQueue) pop() (Frame, bool) {
	if q.head == len(q.buf) {
		return Frame{}, false
	}
	f := q.buf[q.head]
	q.buf[q.head] = Frame{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return f, true
}

// reset empties the queue, dropping its frames' payloads.
func (q *frameQueue) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// Endpoint is one end of a simulated serial pipe.
//
// Buffer ownership: Send encodes into the endpoint's own wire scratch,
// which stays valid only until the next Send; the peer's decoder copies
// every payload it delivers, so a received frame's payload belongs to
// the receiver.
type Endpoint struct {
	peer      *Endpoint
	inbox     frameQueue
	dec       Decoder
	wire      []byte // Send's encode scratch
	baud      int
	sentBytes int
	busySec   float64
	faults    *injector

	// Telemetry handles, interned once by SetTelemetry. All nil (no-op)
	// until attached, so the transmit path costs one branch per handle
	// when telemetry is disabled.
	cTxFrames  *telemetry.Counter
	cTxBytes   *telemetry.Counter
	cTxDropped *telemetry.Counter
	trace      *telemetry.Stream
}

// SetTelemetry attaches metric counters (named <prefix>.tx_frames,
// <prefix>.tx_bytes, <prefix>.tx_dropped_frames) and an optional trace
// stream to this endpoint's transmit path. Either argument may be nil.
func (e *Endpoint) SetTelemetry(reg *telemetry.Registry, prefix string, trace *telemetry.Stream) {
	e.cTxFrames = reg.Counter(prefix + ".tx_frames")
	e.cTxBytes = reg.Counter(prefix + ".tx_bytes")
	e.cTxDropped = reg.Counter(prefix + ".tx_dropped_frames")
	e.trace = trace
}

// Pipe creates a connected full-duplex link at the given baud rate
// (115200 is the Nexus 4 debug UART's typical rate).
func Pipe(baud int) (a, b *Endpoint, err error) {
	if baud <= 0 {
		return nil, nil, fmt.Errorf("link: baud must be positive, got %d", baud)
	}
	a = &Endpoint{baud: baud}
	b = &Endpoint{baud: baud}
	a.peer = b
	b.peer = a
	return a, b, nil
}

// SetFaults installs a deterministic fault injector on this endpoint's
// transmit path: frames this endpoint sends are subjected to the
// configured drop/corruption/delay lottery before reaching the peer. A
// zero FaultConfig removes the injector (perfect link).
func (e *Endpoint) SetFaults(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.enabled() {
		e.faults = nil
		return nil
	}
	e.faults = newInjector(cfg)
	return nil
}

// FaultStats returns the injector's tally (zero value when no faults are
// configured).
func (e *Endpoint) FaultStats() FaultStats {
	if e.faults == nil {
		return FaultStats{}
	}
	return e.faults.stats
}

// Send encodes and transmits a frame to the peer, accounting transfer
// time at 10 wire bits per byte (8N1 UART). Wire damage is the receiver's
// problem, exactly as on a real UART: a frame the peer cannot decode is
// counted in the peer's RxCorrupt/RxMalformed tallies and never enters its
// inbox; Send itself only fails for local errors such as an unencodable
// frame (ErrPayloadTooLarge).
func (e *Endpoint) Send(f Frame) error {
	_, err := e.send(f)
	return err
}

// send is Send returning the frame's wire size.
func (e *Endpoint) send(f Frame) (int, error) {
	wire, err := AppendEncode(e.wire[:0], f)
	if err != nil {
		return 0, err
	}
	e.wire = wire
	e.sentBytes += len(wire)
	e.busySec += float64(len(wire)*10) / float64(e.baud)
	e.cTxFrames.Inc()
	e.cTxBytes.Add(int64(len(wire)))
	e.trace.Instant1("frame.send", "link", "msg_type", float64(f.Type))
	if e.faults == nil {
		e.deliver(wire)
		return len(wire), nil
	}
	droppedBefore := e.faults.stats.FramesDropped
	for _, chunk := range e.faults.transmit(wire) {
		e.deliver(chunk)
	}
	if d := e.faults.stats.FramesDropped - droppedBefore; d > 0 {
		e.cTxDropped.Add(int64(d))
		e.trace.Instant1("frame.drop", "link", "msg_type", float64(f.Type))
	}
	return len(wire), nil
}

// SendLossy is Send: a raw endpoint offers no stronger guarantee.
func (e *Endpoint) SendLossy(f Frame) error { return e.Send(f) }

// deliver feeds wire bytes into the peer's decoder, which appends the
// frames straight to the peer's inbox.
func (e *Endpoint) deliver(chunk []byte) {
	// Decode errors are recorded by the peer's decoder counters; damaged
	// frames simply never arrive.
	in := &e.peer.inbox
	in.compact()
	in.buf, _ = e.peer.dec.FeedAppend(in.buf, chunk)
}

// Tick releases any fault-delayed transmissions whose jitter has elapsed.
func (e *Endpoint) Tick() {
	if e.faults == nil {
		return
	}
	for _, chunk := range e.faults.tickHeld() {
		e.deliver(chunk)
	}
}

// Idle reports whether this endpoint has no transmissions held back by
// delay jitter.
func (e *Endpoint) Idle() bool { return e.faults == nil || e.faults.heldCount() == 0 }

// Receive pops the oldest pending frame.
func (e *Endpoint) Receive() (Frame, bool) { return e.inbox.pop() }

// Pending returns the number of undelivered frames.
func (e *Endpoint) Pending() int { return e.inbox.len() }

// SentBytes returns the total wire bytes this endpoint transmitted.
func (e *Endpoint) SentBytes() int { return e.sentBytes }

// BusySeconds returns the cumulative wire time this endpoint's
// transmissions occupied.
func (e *Endpoint) BusySeconds() float64 { return e.busySec }

// RxCorrupt returns how many inbound frames this endpoint rejected as
// line-damaged (CRC failure or truncation).
func (e *Endpoint) RxCorrupt() int { return e.dec.Corrupt() }

// RxMalformed returns how many inbound frames this endpoint rejected as
// structurally malformed (CRC-valid but self-inconsistent).
func (e *Endpoint) RxMalformed() int { return e.dec.Malformed() }

// Blackhole discards every frame waiting in the inbox without processing
// it, returning the count. It models a dead peer CPU: inbound bytes still
// hit the UART, but nobody reads them. Wire and fault accounting already
// happened on the sender's side and is unaffected.
func (e *Endpoint) Blackhole() int {
	n := e.inbox.len()
	e.inbox.reset()
	return n
}

// Reboot models this endpoint's CPU losing power: the receive inbox, any
// half-decoded frame, and transmissions still held back by fault jitter
// are all gone. Wire statistics (bytes, busy time, fault tallies) survive
// — they describe what already happened on the line.
func (e *Endpoint) Reboot() {
	e.inbox.reset()
	e.dec.reset()
	if e.faults != nil {
		e.faults.dropHeld()
	}
}
