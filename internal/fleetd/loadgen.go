package fleetd

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"sidewinder/internal/link"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// The load generator replays a sim.FleetRun population over real sockets:
// every cell of the batch sweep becomes one device session that sends its
// wakes, heartbeats and energy split as protocol frames. Because the cell
// records the exact per-component energy the batch run deposits, the
// daemon's ledger after a full (shed-free) replay must match the batch
// ledger — per device bit for bit — which is the identity test's anchor.

// BuildPopulation synthesizes candidate traces (two robot accelerometer
// groups and one office audio bed) and runs the batch fleet sweep. The
// returned ledger is the batch reference the daemon replay is compared
// against.
func BuildPopulation(devices, appsPerDevice int, seed int64, traceDur time.Duration, workers int) (*sim.FleetResult, *telemetry.Ledger, error) {
	busy, err := tracegen.Robot(tracegen.RobotConfig{Seed: seed, Duration: traceDur, IdleFraction: 0.1})
	if err != nil {
		return nil, nil, err
	}
	idle, err := tracegen.Robot(tracegen.RobotConfig{Seed: seed + 1, Duration: traceDur, IdleFraction: 0.9})
	if err != nil {
		return nil, nil, err
	}
	office, err := tracegen.Audio(tracegen.NewAudioConfig(seed+2, traceDur, tracegen.OfficeAudio))
	if err != nil {
		return nil, nil, err
	}
	led := telemetry.NewLedger()
	res, err := sim.FleetRun(sim.FleetRunConfig{
		Devices:       devices,
		AppsPerDevice: appsPerDevice,
		Seed:          seed,
		Workers:       workers,
		Accel:         []*sensor.Trace{busy, idle},
		Audio:         []*sensor.Trace{office},
		Telemetry:     telemetry.Set{Ledger: led},
	})
	if err != nil {
		return nil, nil, err
	}
	return res, led, nil
}

// LoadConfig parameterizes a socket replay of a fleet population.
type LoadConfig struct {
	// Addr is the daemon's ingest address (required).
	Addr string
	// Window bounds in-flight unacked frames per device (default 64).
	Window int
	// HeartbeatEvery inserts one heartbeat per this many wake frames
	// (default 25).
	HeartbeatEvery int
	// Concurrency bounds simultaneously connected devices (default: the
	// whole population at once — concurrent load is the point).
	Concurrency int
	// Reconnect is each device's redial budget: a session survives up to
	// this many consecutive no-progress connection failures before giving
	// up. Zero means one connection, and any failure on it is fatal for
	// the device.
	Reconnect int
	// BackoffBase/BackoffCap bound the capped exponential reconnect
	// backoff (defaults 25ms / 1s). Progress on a connection resets the
	// backoff to its base.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// AckTimeout bounds every socket read and flush (default: none): a
	// stalled or blackholed server turns into a reconnect instead of a
	// hung device.
	AckTimeout time.Duration
	// Pace inserts this delay between consecutive frame sends on each
	// device session (default: none — full blast). Pacing stretches a
	// replay over wall-clock time, which is what crash-mid-soak tests
	// need: an unpaced loopback replay finishes before anyone can pull
	// a plug.
	Pace time.Duration
}

// LoadReport aggregates a replay.
type LoadReport struct {
	Devices      int
	Frames       uint64 // acked event frames (wakes + heartbeats + energy)
	Accepted     uint64
	Shed         uint64
	Wakes        uint64
	Heartbeats   uint64
	EnergyFrames uint64
	DurationSec  float64
	EventsPerSec float64
	P50ms        float64
	P99ms        float64
	P999ms       float64
	// Summaries holds every device's server-side bye-ack totals by ID.
	Summaries map[uint64]DeviceSummary
	// Mismatches counts devices whose bye-ack disagreed with the
	// client-side record of accepted frames — must be zero.
	Mismatches int
	// Reconnects counts session re-dials across all devices.
	Reconnects uint64
	// DupAcks counts retransmitted frames the server answered with
	// AckDup — proof the dedup path, not a re-apply, absorbed them.
	DupAcks uint64
	// Resumed counts frames resolved by a resume-ack watermark instead
	// of an individually observed ack (the ack was lost with the old
	// connection).
	Resumed uint64
	// Unrecovered counts devices that exhausted their reconnect budget.
	// Only these make the run fail.
	Unrecovered int
}

// outFrame is one scheduled frame of a device session.
type outFrame struct {
	kind      int // itemWake, itemEnergy, or frameHeartbeat below
	seq       uint32
	component telemetry.Component
	mj        float64
	wire      []byte
}

const frameHeartbeat = 100 // distinct from the server-side item kinds

// deviceOutcome is one session's client-side record.
type deviceOutcome struct {
	id                        uint64
	wakes, heartbeats, energy uint64 // accepted, by kind
	shed                      uint64
	reconnects                uint64
	dup                       uint64
	resumed                   uint64
	summary                   DeviceSummary
	mismatch                  string // non-empty: bye-ack disagreed with us
	err                       error
}

// schedule builds a cell's frame sequence: wakes with interleaved
// heartbeats (boot epoch 1), then the six-component energy split in the
// exact order batch FleetRun deposits it (DepositEnergy), then nothing —
// the bye is written by the session after the last ack.
func schedule(cell *sim.FleetCell, hbEvery int) []outFrame {
	if hbEvery <= 0 {
		hbEvery = 25
	}
	frames := make([]outFrame, 0, cell.Wakes+cell.Wakes/hbEvery+8)
	seq := uint32(0)
	next := func() uint32 { seq++; return seq }
	for w := 0; w < cell.Wakes; w++ {
		if w%hbEvery == 0 {
			s := next()
			hb := Heartbeat{Seq: s, Epoch: 1}
			frames = append(frames, outFrame{kind: frameHeartbeat, seq: s, wire: mustFrame(MsgDeviceHeartbeat, hb.Encode())})
		}
		s := next()
		we := WakeEvent{Seq: s, Node: uint16(w), Value: cell.AvgMW}
		frames = append(frames, outFrame{kind: itemWake, seq: s, wire: mustFrame(MsgDeviceWake, we.Encode())})
	}
	deposits := []ComponentMJ{
		{telemetry.PhoneAsleep, cell.PhoneStateMJ[power.Asleep]},
		{telemetry.PhoneWaking, cell.PhoneStateMJ[power.WakingUp]},
		{telemetry.PhoneAwake, cell.PhoneStateMJ[power.Awake]},
		{telemetry.PhoneFallingAsleep, cell.PhoneStateMJ[power.FallingAsleep]},
		{telemetry.PhoneFallback, cell.FallbackEnergyMJ},
		{telemetry.HubDevice, cell.HubEnergyMJ},
	}
	for _, d := range deposits {
		s := next()
		ev := EnergyEvent{Seq: s, Component: d.Component, MJ: d.MJ}
		frames = append(frames, outFrame{kind: itemEnergy, seq: s, component: d.Component, mj: d.MJ,
			wire: mustFrame(MsgDeviceEnergy, ev.Encode())})
	}
	return frames
}

func mustFrame(t link.MsgType, payload []byte) []byte {
	wire, err := link.Encode(link.Frame{Type: t, Payload: payload})
	if err != nil {
		panic(err) // payloads are fixed-size and well under the frame limit
	}
	return wire
}

// frameReader pulls whole protocol frames off a connection. A non-zero
// timeout re-arms a read deadline before every read, so a stalled peer
// surfaces as a timeout error instead of a hang.
type frameReader struct {
	conn    net.Conn
	dec     link.Decoder
	buf     []byte
	queue   []link.Frame
	timeout time.Duration
}

func (r *frameReader) next() (link.Frame, error) {
	for len(r.queue) == 0 {
		if r.timeout > 0 {
			if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
				return link.Frame{}, err
			}
		}
		n, err := r.conn.Read(r.buf)
		if n > 0 {
			frames, ferr := r.dec.Feed(r.buf[:n])
			r.queue = append(r.queue, frames...)
			if ferr != nil && link.IsMalformed(ferr) {
				return link.Frame{}, ferr
			}
		}
		if err != nil && len(r.queue) == 0 {
			return link.Frame{}, err
		}
	}
	f := r.queue[0]
	r.queue = r.queue[1:]
	return f, nil
}

// devSession is a device's client-side state, persistent across
// connection attempts. frames[i] stays scheduled until resolved[i]: a
// frame resolves when its ack is read, or — after a cut ate the ack —
// when a resume-ack watermark covers it. Resolution is what increments
// the accepted counters, so a frame is counted exactly once no matter
// how many times the wire carried it.
type devSession struct {
	frames   []outFrame
	resolved []bool
	// resolvedShed marks frames whose resolution was AckShed. A shed is a
	// settled transaction — the server billed the fallback cost, we
	// counted the shed — so the frame must never be re-offered on a later
	// connection: the server kept no record of the refusal (a shed seq is
	// a hole in its watermark), and a retry it accepts would double-count
	// the event on top of the fallback billing.
	resolvedShed   []bool
	nResolved      int
	maxResolved    uint32 // highest seq resolved (resume handshake's LastAcked)
	wakes          uint64
	heartbeats     uint64
	energy         uint64
	shed           uint64
	dup            uint64
	resumed        uint64
	reconnects     uint64
	energyAccepted []float64 // client-side mirror of server accumulation
	summary        DeviceSummary
	mismatch       string
}

// resolve marks frame i resolved with the given ack status and counts it.
// Idempotent: retransmit acks for already-resolved frames are ignored,
// save one. AckShed for a frame resolved as accepted means the server
// restarted from a checkpoint that predates the acceptance: it lost the
// event and has now refused and billed it, so the event is a shed after
// all and moves from the accepted counters to the shed one.
func (st *devSession) resolve(i int, status byte) {
	if st.resolved[i] {
		if status == AckShed && !st.resolvedShed[i] {
			st.revoke(i)
		}
		return
	}
	st.resolved[i] = true
	st.nResolved++
	f := &st.frames[i]
	if f.seq > st.maxResolved {
		st.maxResolved = f.seq
	}
	if status == AckShed {
		st.resolvedShed[i] = true
		st.shed++
		return
	}
	// Accepted or duplicate: either way the event is in the server.
	if status == AckDup {
		st.dup++
	}
	switch f.kind {
	case itemWake:
		st.wakes++
	case frameHeartbeat:
		st.heartbeats++
	case itemEnergy:
		st.energy++
		st.energyAccepted[f.component] += f.mj
	}
}

// revoke turns accepted frame i into a shed one. The energy mirror is
// summed again in send order rather than subtracted from, so it keeps
// the bits of the server's own sum, which never held the frame.
func (st *devSession) revoke(i int) {
	st.resolvedShed[i] = true
	st.shed++
	f := &st.frames[i]
	switch f.kind {
	case itemWake:
		st.wakes--
	case frameHeartbeat:
		st.heartbeats--
	case itemEnergy:
		st.energy--
		sum := 0.0
		for j := range st.frames {
			g := &st.frames[j]
			if g.kind == itemEnergy && g.component == f.component && st.resolved[j] && !st.resolvedShed[j] {
				sum += g.mj
			}
		}
		st.energyAccepted[f.component] = sum
	}
}

// unsentAbove is the retransmission set for a connection whose resume
// watermark is the given seq: every frame above the watermark — resolved
// accepted ones included, because a server restarted from a checkpoint
// rolls its watermark back to the durable applied seq and anything above
// it must be re-offered (the dedup path answers AckDup for what it still
// has) — EXCEPT frames resolved as shed. A shed was billed on both sides
// when it happened; re-offering it after a reconnect could get it
// accepted this time, double-counting the event on top of the fallback
// billing and breaking the bye-ack cross-check.
func (st *devSession) unsentAbove(watermark uint32) []int {
	toSend := make([]int, 0, len(st.frames))
	for i := range st.frames {
		if st.frames[i].seq > watermark && !st.resolvedShed[i] {
			toSend = append(toSend, i)
		}
	}
	return toSend
}

// attempt runs one connection's worth of the session: resume handshake,
// send everything unresolved past the server's watermark, read acks, and
// — when every frame is resolved — the bye exchange. Returns done=true
// only after a verified bye-ack; any error leaves the session state
// ready for the next attempt.
func (st *devSession) attempt(cfg LoadConfig, id uint64, lat *telemetry.Histogram) (done bool, err error) {
	var conn net.Conn
	if cfg.AckTimeout > 0 {
		conn, err = net.DialTimeout("tcp", cfg.Addr, cfg.AckTimeout)
	} else {
		conn, err = net.Dial("tcp", cfg.Addr)
	}
	if err != nil {
		return false, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	fr := &frameReader{conn: conn, buf: make([]byte, 1<<13), timeout: cfg.AckTimeout}

	// write sends one frame honoring the ack timeout as a write deadline.
	write := func(wire []byte) error {
		if cfg.AckTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(cfg.AckTimeout)); err != nil {
				return err
			}
		}
		_, werr := conn.Write(wire)
		return werr
	}

	if err := write(mustFrame(MsgResume, Resume{Version: ProtocolVersion, DeviceID: id, LastAcked: st.maxResolved}.Encode())); err != nil {
		return false, fmt.Errorf("resume: %w", err)
	}
	f, err := fr.next()
	if err != nil || f.Type != MsgResumeAck {
		return false, fmt.Errorf("waiting for resume-ack (got %v): %v", f.Type, err)
	}
	ra, err := DecodeResumeAck(f.Payload)
	if err != nil {
		return false, err
	}
	// Everything at or below the server's contiguous watermark was
	// accepted — including frames whose acks were lost with the old
	// connection. Resolve them as accepted; never retransmit them.
	for i := range st.frames {
		if st.frames[i].seq <= ra.AckedSeq && !st.resolved[i] {
			st.resolve(i, AckAccepted)
			st.resumed++
		}
	}

	toSend := st.unsentAbove(ra.AckedSeq)

	window := cfg.Window
	if window <= 0 {
		window = 64
	}
	type inflight struct {
		idx int
		at  time.Time
	}
	pending := make(chan inflight, window)
	writeErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop) // unblocks the writer if the reader bails early
	go func() {
		bw := bufio.NewWriterSize(conn, 1<<13)
		flush := func() error {
			if cfg.AckTimeout > 0 {
				if err := conn.SetWriteDeadline(time.Now().Add(cfg.AckTimeout)); err != nil {
					return err
				}
			}
			return bw.Flush()
		}
		for n, i := range toSend {
			select {
			case pending <- inflight{idx: i, at: time.Now()}:
			case <-stop:
				writeErr <- nil
				close(pending)
				return
			}
			if _, err := bw.Write(st.frames[i].wire); err != nil {
				writeErr <- err
				close(pending)
				return
			}
			// Flushing with window room to spare is wasted syscalls;
			// flushing when the writer is about to block keeps acks flowing.
			// A paced frame always flushes — it must be on the wire before
			// the writer goes to sleep.
			if cfg.Pace > 0 || len(pending) >= window-1 || n == len(toSend)-1 || bw.Available() < 64 {
				if err := flush(); err != nil {
					writeErr <- err
					close(pending)
					return
				}
			}
			if cfg.Pace > 0 && n < len(toSend)-1 {
				select {
				case <-time.After(cfg.Pace):
				case <-stop:
					writeErr <- nil
					close(pending)
					return
				}
			}
		}
		writeErr <- nil
		close(pending)
	}()

	for inf := range pending {
		f, err := fr.next()
		if err != nil {
			return false, fmt.Errorf("reading ack for seq %d: %w", st.frames[inf.idx].seq, err)
		}
		if f.Type != MsgEventAck {
			return false, fmt.Errorf("expected ack, got frame type 0x%02x", byte(f.Type))
		}
		ack, err := DecodeEventAck(f.Payload)
		if err != nil {
			return false, err
		}
		if ack.Seq != st.frames[inf.idx].seq {
			return false, fmt.Errorf("ack seq %d, want %d (acks must arrive in send order)", ack.Seq, st.frames[inf.idx].seq)
		}
		lat.Observe(float64(time.Since(inf.at).Microseconds()) / 1000)
		st.resolve(inf.idx, ack.Status)
	}
	if err := <-writeErr; err != nil {
		return false, fmt.Errorf("writing: %w", err)
	}

	byeSeq := uint32(len(st.frames) + 1)
	if err := write(mustFrame(MsgBye, Bye{Seq: byeSeq}.Encode())); err != nil {
		return false, fmt.Errorf("bye: %w", err)
	}
	f, err = fr.next()
	if err != nil || f.Type != MsgByeAck {
		return false, fmt.Errorf("waiting for bye-ack (got %v): %v", f.Type, err)
	}
	sum, err := DecodeDeviceSummary(f.Payload)
	if err != nil {
		return false, err
	}
	st.summary = sum

	// The bye-ack is the no-side-channel proof that every acknowledged
	// frame landed: counts must match exactly, energy bit for bit. One
	// relaxation for a device that redialed: the server may have shed the
	// same retransmitted frame more than once (each one billed), so its
	// shed count may exceed ours — it must never be lower.
	shedsDisagree := sum.Sheds != st.shed
	if st.reconnects > 0 {
		shedsDisagree = sum.Sheds < st.shed
	}
	switch {
	case sum.Seq != byeSeq:
		st.mismatch = fmt.Sprintf("bye seq %d, want %d", sum.Seq, byeSeq)
	case sum.Wakes != st.wakes:
		st.mismatch = fmt.Sprintf("server wakes %d, client acked %d", sum.Wakes, st.wakes)
	case sum.Heartbeats != st.heartbeats:
		st.mismatch = fmt.Sprintf("server heartbeats %d, client acked %d", sum.Heartbeats, st.heartbeats)
	case shedsDisagree:
		st.mismatch = fmt.Sprintf("server sheds %d, client saw %d", sum.Sheds, st.shed)
	default:
		got := make([]float64, len(st.energyAccepted))
		for _, e := range sum.Energy {
			if int(e.Component) < len(got) {
				got[e.Component] = e.MJ
			}
		}
		for c := range st.energyAccepted {
			if math.Float64bits(got[c]) != math.Float64bits(st.energyAccepted[c]) {
				st.mismatch = fmt.Sprintf("component %s: server %v, client %v",
					telemetry.Component(c), got[c], st.energyAccepted[c])
				break
			}
		}
	}
	return true, nil
}

// runDevice replays one cell as a full device session: every connection
// opens with a resume handshake, and the session rides through connection
// failures on capped exponential backoff, resetting its redial budget
// whenever an attempt makes progress. A zero budget allows one
// connection.
func runDevice(cfg LoadConfig, id uint64, cell *sim.FleetCell, lat *telemetry.Histogram) deviceOutcome {
	out := deviceOutcome{id: id}
	frames := schedule(cell, cfg.HeartbeatEvery)
	st := &devSession{
		frames:         frames,
		resolved:       make([]bool, len(frames)),
		resolvedShed:   make([]bool, len(frames)),
		energyAccepted: make([]float64, len(telemetry.Components())),
	}

	base := cfg.BackoffBase
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	capd := cfg.BackoffCap
	if capd < base {
		capd = time.Second
	}
	backoff := base
	fails := 0
	for {
		before := st.nResolved
		done, err := st.attempt(cfg, id, lat)
		if done {
			break
		}
		if st.nResolved > before && cfg.Reconnect > 0 {
			// Progress: the fleet is alive, just rude. Reset the budget.
			fails = 0
			backoff = base
		} else {
			fails++
		}
		if fails > cfg.Reconnect {
			out.err = fmt.Errorf("device %d: giving up after %d consecutive failed attempts: %w", id, fails, err)
			break
		}
		st.reconnects++
		time.Sleep(backoff)
		backoff *= 2
		if backoff > capd {
			backoff = capd
		}
	}

	out.wakes, out.heartbeats, out.energy = st.wakes, st.heartbeats, st.energy
	out.shed, out.dup, out.resumed = st.shed, st.dup, st.resumed
	out.reconnects = st.reconnects
	out.summary, out.mismatch = st.summary, st.mismatch
	return out
}

// RunLoad replays every cell of a population against the daemon,
// Concurrency devices at a time, and aggregates throughput, latency
// quantiles and the per-device server summaries.
func RunLoad(cfg LoadConfig, cells []sim.FleetCell) (*LoadReport, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("fleetd: load generator needs an address")
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("fleetd: load generator needs a population")
	}
	lat := telemetry.NewRegistry().Histogram("fleetload.ack_latency_ms",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000})

	conc := cfg.Concurrency
	if conc <= 0 || conc > len(cells) {
		conc = len(cells)
	}
	sem := make(chan struct{}, conc)
	outs := make([]deviceOutcome, len(cells))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[i] = runDevice(cfg, uint64(i+1), &cells[i], lat)
		}(i)
	}
	wg.Wait()
	dur := time.Since(start).Seconds()

	rep := &LoadReport{
		Devices:     len(cells),
		DurationSec: dur,
		Summaries:   make(map[uint64]DeviceSummary, len(cells)),
	}
	var firstErr error
	for i := range outs {
		o := &outs[i]
		rep.Reconnects += o.reconnects
		rep.DupAcks += o.dup
		rep.Resumed += o.resumed
		if o.err != nil {
			rep.Unrecovered++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		rep.Wakes += o.wakes
		rep.Heartbeats += o.heartbeats
		rep.EnergyFrames += o.energy
		rep.Accepted += o.wakes + o.heartbeats + o.energy
		rep.Shed += o.shed
		rep.Summaries[o.id] = o.summary
		if o.mismatch != "" {
			rep.Mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("device %d: summary mismatch: %s", o.id, o.mismatch)
			}
		}
	}
	rep.Frames = rep.Accepted + rep.Shed
	if dur > 0 {
		rep.EventsPerSec = float64(rep.Frames) / dur
	}
	rep.P50ms = lat.Quantile(0.50)
	rep.P99ms = lat.Quantile(0.99)
	rep.P999ms = lat.Quantile(0.999)
	return rep, firstErr
}
