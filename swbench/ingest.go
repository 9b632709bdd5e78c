package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sidewinder/internal/fleetd"
	"sidewinder/internal/link"
	"sidewinder/internal/power"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// The ingest workload drives an in-process fleetd.Server over loopback
// with a client built here from the fleetd and link codecs. Its traffic is
// the repository's own population model, the one cmd/fleetload replays:
// fleetd.BuildPopulation runs the batch fleet sweep (sim.FleetRun) and
// every cell becomes one device whose session sends the cell's wakes,
// with a heartbeat every ingestHeartbeatEvery wakes, then the cell's six
// per-component energy deposits. Devices return for one session per pass
// over the population, resuming from their acked watermark. The run has
// two phases:
//
//   - open loop: frames are due on a fixed schedule at ingestOpenRate;
//     each frame's ack latency is timed from its due time, so a stall
//     charges every frame queued behind it;
//   - closed loop: each connection keeps ingestWindow frames in flight,
//     measuring saturation throughput over whole passes.

const (
	// ingestOpenRate is the open-loop offered load, in frames per second
	// over all connections. It is fixed, never derived from a run: a
	// rate that tracked the machine would hide a latency regression.
	ingestOpenRate = 50000.0
	// ingestWindow bounds in-flight frames per connection in the closed
	// loop (fleetload's -window default).
	ingestWindow = 64
	// ingestClosedRate sizes the closed-loop phase: frames per second of
	// the phase's time budget at the throughput the phase was sized on.
	ingestClosedRate = 150000.0
	// ingestRounds is the number of open-loop slices and of closed-loop
	// rounds; a round is the same whole number of passes over the
	// population.
	ingestRounds = 20
	// ingestOpenShare and ingestClosedShare split the time budget: the
	// open loop's frames, and the closed loop's frames at the throughput
	// it was sized on (ingestClosedRate).
	ingestOpenShare   = 0.3
	ingestClosedShare = 0.6
	// ingestWorkFrames is the unit of work wall_s reports for ingest:
	// the time to get this many frames acked in the closed loop.
	ingestWorkFrames = 100000
	// The population: fleetd.BuildPopulation with fleetload's -apps
	// default. The trace length is longer than fleetload's 10 s default
	// so that the sweep's wake counts are heavy-tailed: most cells wake a
	// few times and a few wake hundreds of times (for this population:
	// 82 of 256 cells never wake, median 6 wakes, 90th percentile 173,
	// maximum 201; 10566 frames per pass).
	ingestDevices  = 256
	ingestApps     = 2
	ingestTraceDur = 60 * time.Second
	// ingestPopulationSeed is fleetload's -seed default. Every run
	// replays this one fleet, so every seed does the same work; the run's
	// seed sets the device IDs and the order sessions are replayed in.
	// (Over seeds 1-8 a 256-cell population's mean session length ranges
	// from 38 to 48 frames, and the per-session cost moves the frame rate
	// with it.)
	ingestPopulationSeed = 42
	// ingestHeartbeatEvery is fleetload's -hb-every default.
	ingestHeartbeatEvery = 25
	// ingestCheckpointEvery is the server's checkpoint period: several
	// checkpoints land in every phase, so each run pays for them alike.
	// (sidewinderd's default, 10 s, would fire at most once per phase.)
	ingestCheckpointEvery = 500 * time.Millisecond
)

const (
	evHeartbeat = iota
	evWake
	evEnergy
)

// evInfo is what the client needs to account one acked frame.
type evInfo struct {
	kind uint8
	comp telemetry.Component
	mj   float64
}

// ingestDevice is one simulated device, replaying one population cell.
// genSeq is the last sequence number its sessions have encoded; the other
// fields are the client's accepted totals, written by the reader of the
// device's current session (a device's sessions run one after another on
// one connection).
type ingestDevice struct {
	id     uint64
	cell   *sim.FleetCell
	genSeq uint32

	ackedSeq   uint32
	wakes      uint64
	heartbeats uint64
	energy     []float64 // indexed by telemetry.Component
}

// deposits is a cell's energy split in the order batch FleetRun deposits
// it, as the fleetd load generator replays it.
func deposits(c *sim.FleetCell) []fleetd.ComponentMJ {
	return []fleetd.ComponentMJ{
		{Component: telemetry.PhoneAsleep, MJ: c.PhoneStateMJ[power.Asleep]},
		{Component: telemetry.PhoneWaking, MJ: c.PhoneStateMJ[power.WakingUp]},
		{Component: telemetry.PhoneAwake, MJ: c.PhoneStateMJ[power.Awake]},
		{Component: telemetry.PhoneFallingAsleep, MJ: c.PhoneStateMJ[power.FallingAsleep]},
		{Component: telemetry.PhoneFallback, MJ: c.FallbackEnergyMJ},
		{Component: telemetry.HubDevice, MJ: c.HubEnergyMJ},
	}
}

// cellFrames is the number of frames one session of the cell sends:
// resume, wakes, heartbeats, six deposits and bye.
func cellFrames(c *sim.FleetCell) int {
	hbs := (c.Wakes + ingestHeartbeatEvery - 1) / ingestHeartbeatEvery
	return 1 + c.Wakes + hbs + 6 + 1
}

// ingestSession is one encoded device session: frame 0 is the resume,
// frames 1..len(evs) the acked events, the last frame the bye. A
// connection reuses one session's buffers for all its sessions.
type ingestSession struct {
	dev      *ingestDevice
	firstSeq uint32
	evs      []evInfo
	byeSeq   uint32
	wire     []byte
	offs     []int // frame start offsets into wire, then len(wire)
}

func (s *ingestSession) frames() int { return len(s.offs) - 1 }

func (s *ingestSession) add(t link.MsgType, payload []byte) {
	s.offs = append(s.offs, len(s.wire))
	wire, err := link.Encode(link.Frame{Type: t, Payload: payload})
	if err != nil {
		panic(err) // fixed-size payloads, far below the frame limit
	}
	s.wire = append(s.wire, wire...)
}

// encode fills s with dev's next session, continuing its sequence
// numbers: the wake frames and heartbeats of the load generator's
// schedule (fleetd loadgen.go), then the cell's deposits, then bye.
func (s *ingestSession) encode(dev *ingestDevice) {
	c := dev.cell
	s.dev, s.firstSeq = dev, dev.genSeq+1
	s.evs, s.wire, s.offs = s.evs[:0], s.wire[:0], s.offs[:0]
	s.add(fleetd.MsgResume, fleetd.Resume{
		Version: fleetd.ProtocolVersion, DeviceID: dev.id, LastAcked: dev.genSeq}.Encode())
	for w := 0; w < c.Wakes; w++ {
		if w%ingestHeartbeatEvery == 0 {
			dev.genSeq++
			s.add(fleetd.MsgDeviceHeartbeat, fleetd.Heartbeat{Seq: dev.genSeq, Epoch: 1}.Encode())
			s.evs = append(s.evs, evInfo{kind: evHeartbeat})
		}
		dev.genSeq++
		s.add(fleetd.MsgDeviceWake, fleetd.WakeEvent{Seq: dev.genSeq, Node: uint16(w), Value: c.AvgMW}.Encode())
		s.evs = append(s.evs, evInfo{kind: evWake})
	}
	for _, d := range deposits(c) {
		dev.genSeq++
		s.add(fleetd.MsgDeviceEnergy, fleetd.EnergyEvent{Seq: dev.genSeq, Component: d.Component, MJ: d.MJ}.Encode())
		s.evs = append(s.evs, evInfo{kind: evEnergy, comp: d.Component, mj: d.MJ})
	}
	s.byeSeq = dev.genSeq + 1
	s.add(fleetd.MsgBye, fleetd.Bye{Seq: s.byeSeq}.Encode())
	s.offs = append(s.offs, len(s.wire))
}

// ingestPlan is the generated input of one ingest run: per connection,
// the devices replaying the population's cells.
type ingestPlan struct {
	devices [][]*ingestDevice
}

// newIngestPlan assigns one device per cell to the connections so that
// every connection sends the same number of frames per pass, to within
// one session (the heaviest cells are placed first, each on the
// connection with the fewest frames so far).
func newIngestPlan(seed int64, cells []sim.FleetCell, conns int) *ingestPlan {
	p := &ingestPlan{devices: make([][]*ingestDevice, conns)}
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cells[idx[a]].Wakes > cells[idx[b]].Wakes })
	load := make([]int, conns)
	ncomp := len(telemetry.Components())
	for _, i := range idx {
		c := 0
		for k := range load {
			if load[k] < load[c] {
				c = k
			}
		}
		load[c] += cellFrames(&cells[i])
		p.devices[c] = append(p.devices[c], &ingestDevice{
			id:     uint64(seed)<<32 | uint64(i+1),
			cell:   &cells[i],
			energy: make([]float64, ncomp),
		})
	}
	return p
}

// passFrames is the number of frames one pass over conn's devices sends.
func (p *ingestPlan) passFrames(conn int) int {
	n := 0
	for _, d := range p.devices[conn] {
		n += cellFrames(d.cell)
	}
	return n
}

// sessionOrder walks one connection's devices pass after pass, each pass
// in a seeded order.
type sessionOrder struct {
	rng   *rand.Rand
	devs  []*ingestDevice
	order []int
	next  int
}

func newSessionOrder(seed int64, conn int, devs []*ingestDevice) *sessionOrder {
	return &sessionOrder{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), devs: devs}
}

// startPass makes the next session the first of a new pass.
func (o *sessionOrder) startPass() { o.next = len(o.order) }

// nextDevice returns the device of the connection's next session.
func (o *sessionOrder) nextDevice() *ingestDevice {
	if o.next == len(o.order) {
		o.order = o.rng.Perm(len(o.devs))
		o.next = 0
	}
	d := o.devs[o.order[o.next]]
	o.next++
	return d
}

// sessionOutcome is the reader's account of one session.
type sessionOutcome struct {
	accepted int    // frames acked AckAccepted
	failed   int    // shed, dup, unacked, or in a mismatched session
	mismatch string // non-empty: the server's view disagreed with ours
	err      error
	byeAckAt time.Time
}

// readSession consumes one session's responses in order: the resume-ack,
// one ack per event, then the bye-ack. onResp runs once per response
// (with the event index for acks, -1 otherwise) before anything else
// happens for it. The device's accepted totals are updated as acks
// arrive and compared with the bye-ack summary. buf is the read buffer.
func readSession(conn net.Conn, s *ingestSession, buf []byte, onResp func(ev int, at time.Time)) (o sessionOutcome) {
	var dec link.Decoder
	dev := s.dev
	next := 0 // index of the next expected event ack
	gotResume := false
	fail := func(err error) sessionOutcome {
		o.err = err
		o.failed += len(s.evs) - next
		return o
	}
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			frames, ferr := dec.Feed(buf[:n])
			if ferr != nil && link.IsMalformed(ferr) {
				return fail(ferr)
			}
			for _, f := range frames {
				at := time.Now()
				switch f.Type {
				case fleetd.MsgResumeAck:
					ra, derr := fleetd.DecodeResumeAck(f.Payload)
					if derr != nil {
						return fail(derr)
					}
					onResp(-1, at)
					gotResume = true
					if ra.AckedSeq != dev.ackedSeq {
						o.mismatch = fmt.Sprintf("resume watermark %d, client acked %d", ra.AckedSeq, dev.ackedSeq)
					}
				case fleetd.MsgEventAck:
					a, derr := fleetd.DecodeEventAck(f.Payload)
					if derr != nil {
						return fail(derr)
					}
					if !gotResume || next >= len(s.evs) || a.Seq != s.firstSeq+uint32(next) {
						return fail(fmt.Errorf("unexpected ack seq %d", a.Seq))
					}
					onResp(next, at)
					if a.Status != fleetd.AckAccepted {
						o.failed++
					} else {
						o.accepted++
						switch e := s.evs[next]; e.kind {
						case evHeartbeat:
							dev.heartbeats++
						case evWake:
							dev.wakes++
						case evEnergy:
							dev.energy[e.comp] += e.mj
						}
						dev.ackedSeq = a.Seq
					}
					next++
				case fleetd.MsgByeAck:
					sum, derr := fleetd.DecodeDeviceSummary(f.Payload)
					if derr != nil {
						return fail(derr)
					}
					onResp(-1, at)
					o.byeAckAt = at
					if next != len(s.evs) {
						return fail(fmt.Errorf("bye-ack after %d of %d acks", next, len(s.evs)))
					}
					if m := summaryMismatch(sum, s.byeSeq, dev); m != "" {
						o.mismatch = m
					}
					if o.mismatch != "" {
						o.failed += o.accepted
						o.accepted = 0
					}
					return o
				default:
					return fail(fmt.Errorf("unexpected frame type 0x%02x", byte(f.Type)))
				}
			}
		}
		if err != nil {
			return fail(fmt.Errorf("reading acks: %w", err))
		}
	}
}

// summaryMismatch compares a bye-ack with the client's accepted totals:
// counts exactly, energy bit for bit (both sides sum the device's
// deposits in sequence order).
func summaryMismatch(sum fleetd.DeviceSummary, byeSeq uint32, dev *ingestDevice) string {
	switch {
	case sum.Seq != byeSeq:
		return fmt.Sprintf("bye seq %d, want %d", sum.Seq, byeSeq)
	case sum.Wakes != dev.wakes:
		return fmt.Sprintf("server wakes %d, client %d", sum.Wakes, dev.wakes)
	case sum.Heartbeats != dev.heartbeats:
		return fmt.Sprintf("server heartbeats %d, client %d", sum.Heartbeats, dev.heartbeats)
	case sum.Sheds != 0:
		return fmt.Sprintf("server shed %d frames", sum.Sheds)
	}
	got := make([]float64, len(dev.energy))
	for _, e := range sum.Energy {
		if int(e.Component) >= len(got) {
			return fmt.Sprintf("unknown component %d", e.Component)
		}
		got[e.Component] = e.MJ
	}
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(dev.energy[c]) {
			return fmt.Sprintf("component %s: server %v, client %v", telemetry.Component(c), got[c], dev.energy[c])
		}
	}
	return ""
}

// pacer is the open-loop generator's clock. The real one sleeps; tests
// substitute a fake to place stalls exactly.
type pacer interface {
	now() time.Duration
	sleepUntil(d time.Duration)
}

type wallPacer struct{ t0 time.Time }

func (p wallPacer) now() time.Duration { return time.Since(p.t0) }
func (p wallPacer) sleepUntil(d time.Duration) {
	if w := d - time.Since(p.t0); w > 0 {
		time.Sleep(w)
	}
}

// pace walks a schedule of due times without sleeping once per frame: it
// sends every frame that is due as one batch, then waits for the next
// due time. send receives the batch [lo, hi) and may block (a slow write,
// a bye round trip); frames that fall due meanwhile go out in the next
// batch. pace returns the generator lateness of each batch: how far
// behind its first frame's due time the batch was sent. Frame latency is
// measured elsewhere from due times, so lateness is reported separately
// and never subtracted from it.
func pace(p pacer, due []time.Duration, send func(lo, hi int) error) ([]time.Duration, error) {
	var late []time.Duration
	for lo := 0; lo < len(due); {
		now := p.now()
		if now < due[lo] {
			p.sleepUntil(due[lo])
			continue
		}
		hi := lo + 1
		for hi < len(due) && due[hi] <= now {
			hi++
		}
		late = append(late, now-due[lo])
		if err := send(lo, hi); err != nil {
			return late, err
		}
		lo = hi
	}
	return late, nil
}

// connStats collects one connection's measurements. The writer goroutine
// owns it; a session's reader appends latencies while the writer waits
// for that reader to finish, so access never overlaps.
type connStats struct {
	attempted, accepted, failed int
	latMS                       []float64 // open loop: ack time - due time
	latWin                      []int     // open loop: each latency's slice
	lateMS                      []float64 // open loop: generator lateness per batch
	sessionMS, byeMS            []float64
	errs                        []string
}

func (cs *connStats) settle(s *ingestSession, o sessionOutcome) {
	cs.attempted += len(s.evs)
	cs.accepted += o.accepted
	cs.failed += o.failed
	if o.err != nil {
		cs.errs = append(cs.errs, fmt.Sprintf("device %d: %v", s.dev.id, o.err))
	} else if o.mismatch != "" {
		cs.errs = append(cs.errs, fmt.Sprintf("device %d: %s", s.dev.id, o.mismatch))
	}
}

// ingestConn is one client connection's state: its session order, the
// session buffers it reuses, its read buffer and its measurements.
type ingestConn struct {
	addr  string
	order *sessionOrder
	sess  ingestSession
	buf   []byte
	stats *connStats
}

func newIngestConn(addr string, order *sessionOrder) *ingestConn {
	return &ingestConn{addr: addr, order: order, buf: make([]byte, 32<<10), stats: &connStats{}}
}

// runOpen replays sessions open-loop until at least frames frames have
// been sent. Frame k of the connection's schedule is due at
// off + k·interval after t0; each frame's latency is recorded from its
// due time, tagged with the slice it belongs to.
func (ic *ingestConn) runOpen(frames, slice int, t0 time.Time, off, interval time.Duration, rec *recorder, parent int) {
	p := wallPacer{t0: t0}
	cs := ic.stats
	var due []time.Duration
	for k := 0; k < frames; {
		s := &ic.sess
		s.encode(ic.order.nextDevice())
		n := s.frames()
		due = due[:0]
		for j := 0; j < n; j++ {
			due = append(due, off+time.Duration(k+j)*interval)
		}
		k += n
		var conn net.Conn
		done := make(chan sessionOutcome, 1)
		var sessStart, byeSent time.Time
		var sid, bid int = -1, -1
		late, err := pace(p, due, func(lo, hi int) error {
			if conn == nil {
				sid = rec.begin("ingest.session", parent)
				sessStart = time.Now()
				dial := rec.begin("ingest.dial", sid)
				c, err := net.Dial("tcp", ic.addr)
				rec.end(dial)
				if err != nil {
					return err
				}
				conn = c
				go func() {
					done <- readSession(c, s, ic.buf, func(ev int, at time.Time) {
						if ev >= 0 {
							d := due[ev+1]
							cs.latMS = append(cs.latMS, durMS(at.Sub(t0)-d))
							cs.latWin = append(cs.latWin, slice)
						}
					})
				}()
			}
			if hi == n {
				byeSent = time.Now()
				bid = rec.begin("ingest.bye", sid)
			}
			_, err := conn.Write(s.wire[s.offs[lo]:s.offs[hi]])
			return err
		})
		for _, l := range late {
			cs.lateMS = append(cs.lateMS, durMS(l))
		}
		var o sessionOutcome
		if conn != nil {
			if err != nil {
				conn.Close() // unblocks the reader
			}
			o = <-done
			conn.Close()
		} else {
			o = sessionOutcome{err: err, failed: len(s.evs)}
		}
		rec.end(bid)
		rec.end(sid)
		if err != nil && o.err == nil {
			o.err = err
		}
		if o.err == nil {
			cs.sessionMS = append(cs.sessionMS, durMS(o.byeAckAt.Sub(sessStart)))
			cs.byeMS = append(cs.byeMS, durMS(o.byeAckAt.Sub(byeSent)))
		}
		cs.settle(s, o)
	}
}

// runClosed replays n sessions with at most ingestWindow frames (resume
// and bye included) awaiting a response, accounting them in cs.
func (ic *ingestConn) runClosed(n int, rec *recorder, parent int, cs *connStats) {
	tokens := make(chan struct{}, ingestWindow) // one per in-flight slot
	for i := 0; i < ingestWindow; i++ {
		tokens <- struct{}{}
	}
	for i := 0; i < n; i++ {
		s := &ic.sess
		s.encode(ic.order.nextDevice())
		sid := rec.begin("ingest.session", parent)
		conn, err := net.Dial("tcp", ic.addr)
		if err != nil {
			rec.end(sid)
			cs.settle(s, sessionOutcome{err: err, failed: len(s.evs)})
			continue
		}
		done := make(chan sessionOutcome, 1)
		go func() {
			done <- readSession(conn, s, ic.buf, func(int, time.Time) { tokens <- struct{}{} })
		}()
		n := s.frames()
		var o sessionOutcome
		finished := false
		for j := 0; j < n && !finished; {
			select {
			case <-tokens:
			case o = <-done: // the reader quit early; nothing more will be acked
				finished = true
				continue
			}
			k := j + 1
		grab:
			for k < n {
				select {
				case <-tokens:
					k++
				default:
					break grab
				}
			}
			if _, err := conn.Write(s.wire[s.offs[j]:s.offs[k]]); err != nil {
				conn.Close()
				o = <-done
				finished = true
				if o.err == nil {
					o.err = err
				}
				continue
			}
			j = k
		}
		if !finished {
			o = <-done
		}
		conn.Close()
		if o.err != nil || o.byeAckAt.IsZero() {
			// Responses that never came took their tokens with them.
			for len(tokens) < ingestWindow {
				tokens <- struct{}{}
			}
		}
		rec.end(sid)
		cs.settle(s, o)
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ingestServer starts a server with checkpointing into dir (emptied
// first) and a fresh telemetry registry.
func ingestServer(dir string) (*fleetd.Server, *telemetry.Registry, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	srv, err := fleetd.NewServer(fleetd.Config{
		Addr:            "127.0.0.1:0",
		CheckpointPath:  filepath.Join(dir, "fleetd.ckpt"),
		CheckpointEvery: ingestCheckpointEvery,
		Telemetry:       telemetry.Set{Metrics: reg},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	return srv, reg, nil
}

// runConns runs fn once per connection index on its own goroutine and
// waits for all of them.
func runConns(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// errSummary joins up to three per-session errors for the report.
func errSummary(all []*connStats) error {
	var errs []error
	total := 0
	for _, cs := range all {
		for _, e := range cs.errs {
			if total < 3 {
				errs = append(errs, errors.New(e))
			}
			total++
		}
	}
	if total == 0 {
		return nil
	}
	if total > 3 {
		errs = append(errs, fmt.Errorf("... and %d more", total-3))
	}
	return errors.Join(errs...)
}
