package link

// Stop-and-wait ARQ over the raw frame channel.
//
// The audio-jack UART of the paper's prototype (§3.4) is effectively
// half-duplex at the protocol level — the hub is a single-threaded
// microcontroller that alternates between sampling sensors and servicing
// the serial line, and neither side has buffer memory for a window of
// in-flight frames. Stop-and-wait (one outstanding frame, resent on
// timeout until acknowledged) is the textbook fit: one sequence byte, one
// timer, one retransmit buffer, and it cannot overrun the peer.
//
// A reliable frame is wrapped as MsgArqData [seq | inner type | inner
// payload]; the receiver acks every data frame it can decode (MsgArqAck
// [seq]) and delivers only the sequence number it expects, so a lost ack —
// which makes the sender retransmit — surfaces as a suppressed duplicate
// rather than a doubled wake event. Timeouts back off exponentially up to
// a cap; after MaxRetries unacknowledged attempts the frame is declared
// dead and handed to the application through TakeDead, keeping the retry
// budget bounded.

import (
	"fmt"

	"sidewinder/internal/telemetry"
)

// ARQConfig tunes the stop-and-wait reliability layer. Zero fields take
// the defaults noted on each.
type ARQConfig struct {
	// TimeoutTicks is the initial ack timeout, in Service ticks
	// (default 2).
	TimeoutTicks int
	// MaxTimeoutTicks caps the exponential backoff (default 16).
	MaxTimeoutTicks int
	// MaxRetries bounds retransmissions of a single frame before it is
	// declared dead (default 8). At a 5% frame-loss rate eight retries
	// put the residual failure probability below 1e-11 per frame.
	MaxRetries int
}

func (c ARQConfig) withDefaults() ARQConfig {
	if c.TimeoutTicks <= 0 {
		c.TimeoutTicks = 2
	}
	if c.MaxTimeoutTicks <= 0 {
		c.MaxTimeoutTicks = 16
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	return c
}

// ARQStats counts one session's traffic from this side's perspective.
type ARQStats struct {
	DataSent      int // reliable frames accepted for transmission
	DataAcked     int // reliable frames confirmed delivered
	DataReceived  int // in-sequence reliable frames delivered upward
	Retransmits   int // timeout-driven re-sends
	AcksSent      int // acknowledgements transmitted
	DupsDropped   int // out-of-sequence data frames suppressed
	StaleAcks     int // acks for frames no longer outstanding
	Dead          int // frames abandoned after MaxRetries
	LossySent     int // fire-and-forget frames bypassing the ARQ
	Malformed     int // ARQ frames with an impossible payload shape
	OverheadBytes int // wire bytes beyond a raw send: headers of
	// retransmissions plus all ack traffic
}

// outstanding is the single in-flight reliable frame.
type outstanding struct {
	frame     Frame
	seq       byte
	timeout   int // current backoff, in ticks
	ticksLeft int
	retries   int
}

// ARQ provides reliable, duplicate-free, in-order delivery of frames over
// a lossy Endpoint. It implements Port: Send is reliable, SendLossy
// bypasses the protocol, and Tick drives timeouts — callers must tick
// regularly (the manager and hub node do so once per Service pass).
//
// Buffer ownership: Send keeps the caller's frame until it is acked (it may
// be retransmitted), so a payload handed to Send must not be reused. The
// data envelope and the ack payload are built in ARQ-owned scratch, which
// is safe because the endpoint copies a frame onto the wire before Send
// returns.
type ARQ struct {
	ep      *Endpoint
	cfg     ARQConfig
	sendq   frameQueue // reliable frames not yet transmitted
	out     outstanding
	sending bool // out holds an unacknowledged frame
	nextSeq byte
	expect  byte
	// expectAny makes the receiver adopt the next data frame's sequence
	// number instead of demanding `expect`. It is set by Reboot (this
	// side lost its receive state) and Resync (the peer lost its send
	// state), so the two sides can re-converge after a crash.
	expectAny bool
	delivered frameQueue // decoded inbound frames awaiting Receive
	dead      []Frame    // reliable frames abandoned after MaxRetries
	stats     ARQStats

	env []byte  // the data envelope: seq | inner type | inner payload
	ack [1]byte // the ack payload: the acknowledged sequence number

	// Telemetry handles, nil (no-op) until SetTelemetry attaches them.
	cRetransmits *telemetry.Counter
	cDead        *telemetry.Counter
	trace        *telemetry.Stream
}

// SetTelemetry attaches metric counters (named <prefix>.arq_retransmits,
// <prefix>.arq_dead_frames) and an optional trace stream that receives
// frame.retransmit / frame.dead instants. Either argument may be nil. The
// underlying endpoint is instrumented separately via Endpoint.SetTelemetry.
func (a *ARQ) SetTelemetry(reg *telemetry.Registry, prefix string, trace *telemetry.Stream) {
	a.cRetransmits = reg.Counter(prefix + ".arq_retransmits")
	a.cDead = reg.Counter(prefix + ".arq_dead_frames")
	a.trace = trace
}

// NewARQ wraps an endpoint in the stop-and-wait reliability layer. Both
// pipe ends must be wrapped for reliable traffic to flow (a raw peer
// would not acknowledge).
func NewARQ(ep *Endpoint, cfg ARQConfig) *ARQ {
	return &ARQ{ep: ep, cfg: cfg.withDefaults()}
}

// Raw returns the underlying endpoint, for wire-level accounting.
func (a *ARQ) Raw() *Endpoint { return a.ep }

// Stats returns a snapshot of the session counters.
func (a *ARQ) Stats() ARQStats { return a.stats }

// Send queues a frame for reliable delivery. The frame goes out
// immediately if nothing is outstanding; otherwise it waits its turn
// (stop-and-wait admits one in-flight frame).
func (a *ARQ) Send(f Frame) error {
	if len(f.Payload) > 0xFFFF-2 {
		return fmt.Errorf("link: ARQ payload too large: %d", len(f.Payload))
	}
	a.sendq.push(f)
	a.stats.DataSent++
	a.transmitNext()
	return nil
}

// SendLossy transmits a frame outside the ARQ protocol: no sequence
// number, no retransmission. Suited to traffic whose loss is tolerable,
// like feedback hints.
func (a *ARQ) SendLossy(f Frame) error {
	a.stats.LossySent++
	return a.ep.Send(f)
}

// Receive pops the oldest delivered frame, draining the wire first.
func (a *ARQ) Receive() (Frame, bool) {
	a.drain()
	return a.delivered.pop()
}

// Pending returns the number of frames ready or queued for Receive.
func (a *ARQ) Pending() int { return a.delivered.len() + a.ep.Pending() }

// Idle reports that no reliable frame is in flight or queued and nothing
// awaits Receive on either the ARQ or the wire below it.
func (a *ARQ) Idle() bool {
	return !a.sending && a.sendq.len() == 0 && a.delivered.len() == 0 &&
		a.ep.Pending() == 0 && a.ep.Idle()
}

// TakeDead returns and clears the frames abandoned after exhausting the
// retransmission budget, so the caller can settle the operations they
// carried (e.g. fail a pending config push with ErrLinkDown).
func (a *ARQ) TakeDead() []Frame {
	d := a.dead
	a.dead = nil
	return d
}

// Tick advances the retransmission timer: call once per service pass.
// Inbound traffic is drained first, so an ack that is already on the wire
// never triggers a spurious retransmit.
func (a *ARQ) Tick() {
	a.ep.Tick()
	a.drain()
	if !a.sending {
		a.transmitNext()
		return
	}
	a.out.ticksLeft--
	if a.out.ticksLeft > 0 {
		return
	}
	if a.out.retries >= a.cfg.MaxRetries {
		a.stats.Dead++
		a.cDead.Inc()
		a.trace.Instant1("frame.dead", "link", "seq", float64(a.out.seq))
		a.dead = append(a.dead, a.out.frame)
		a.out, a.sending = outstanding{}, false
		a.transmitNext()
		return
	}
	a.out.retries++
	a.out.timeout = min(a.out.timeout*2, a.cfg.MaxTimeoutTicks)
	a.out.ticksLeft = a.out.timeout
	a.stats.Retransmits++
	a.cRetransmits.Inc()
	a.trace.Instant2("frame.retransmit", "link", "seq", float64(a.out.seq), "retry", float64(a.out.retries))
	a.stats.OverheadBytes += a.transmit(a.out.frame, a.out.seq)
}

// transmitNext sends the head of the queue if the line is free.
func (a *ARQ) transmitNext() {
	if a.sending {
		return
	}
	f, ok := a.sendq.pop()
	if !ok {
		return
	}
	seq := a.nextSeq
	a.nextSeq++
	a.out = outstanding{
		frame:     f,
		seq:       seq,
		timeout:   a.cfg.TimeoutTicks,
		ticksLeft: a.cfg.TimeoutTicks,
	}
	a.sending = true
	// The 2-byte ARQ header is protocol overhead on the first
	// transmission too.
	a.stats.OverheadBytes += 2
	a.transmit(f, seq)
}

// transmit wraps a frame in the ARQ data envelope and puts it on the
// wire, returning the wire size for overhead accounting. Send pre-checks
// the payload bound, so the wrapped frame always encodes.
func (a *ARQ) transmit(f Frame, seq byte) int {
	a.env = append(append(a.env[:0], seq, byte(f.Type)), f.Payload...)
	n, err := a.ep.send(Frame{Type: MsgArqData, Payload: a.env})
	if err != nil {
		return 0
	}
	return n
}

// Reboot models this side's CPU losing power: the send queue, the
// outstanding frame, undelivered inbound frames and all sequence state
// are gone. The transmitter restarts at sequence 0 and the receiver
// adopts whatever sequence number arrives next, so a rebooted hub can
// resume talking to a phone that kept its counters. Session statistics
// survive — they describe traffic that really happened.
func (a *ARQ) Reboot() {
	a.sendq.reset()
	a.out, a.sending = outstanding{}, false
	a.delivered.reset()
	a.dead = nil
	a.nextSeq = 0
	a.expect = 0
	a.expectAny = true
	a.ep.Reboot()
}

// Resync makes the receiver adopt the peer's next sequence number instead
// of the one continuity expects. The manager calls it when the supervisor
// detects a hub reboot: the hub's transmitter restarted at sequence 0, and
// without adoption every post-reboot frame would be suppressed (and acked)
// as a duplicate.
func (a *ARQ) Resync() { a.expectAny = true }

// Blackhole discards all inbound traffic — wire frames and already
// decoded deliveries — without acknowledging any of it, returning the
// count. A crashed hub is silent: acking while dead would hide the crash
// from the peer's retransmission logic.
func (a *ARQ) Blackhole() int {
	n := a.delivered.len()
	a.delivered.reset()
	return n + a.ep.Blackhole()
}

// drain consumes the raw endpoint's inbox: data frames are acked and
// delivered (once), acks settle the outstanding frame, and non-ARQ frames
// pass straight through (lossy traffic from the peer).
func (a *ARQ) drain() {
	for {
		f, ok := a.ep.Receive()
		if !ok {
			return
		}
		switch f.Type {
		case MsgArqData:
			if len(f.Payload) < 2 {
				a.stats.Malformed++
				continue
			}
			seq := f.Payload[0]
			// Ack everything decodable, even duplicates: the dup means
			// our previous ack was lost.
			a.ack[0] = seq
			n, _ := a.ep.send(Frame{Type: MsgArqAck, Payload: a.ack[:]})
			a.stats.AcksSent++
			a.stats.OverheadBytes += n
			if a.expectAny {
				a.expect = seq
				a.expectAny = false
			}
			if seq != a.expect {
				a.stats.DupsDropped++
				continue
			}
			a.expect++
			// The decoder copied the payload for this frame alone, so the
			// inner payload can alias it.
			inner := Frame{Type: MsgType(f.Payload[1])}
			if len(f.Payload) > 2 {
				inner.Payload = f.Payload[2:]
			}
			a.delivered.push(inner)
			a.stats.DataReceived++
		case MsgArqAck:
			if len(f.Payload) != 1 {
				a.stats.Malformed++
				continue
			}
			if !a.sending || f.Payload[0] != a.out.seq {
				a.stats.StaleAcks++
				continue
			}
			a.out, a.sending = outstanding{}, false
			a.stats.DataAcked++
			a.transmitNext()
		default:
			a.delivered.push(f)
		}
	}
}
