package fleetd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sidewinder/internal/link"
	"sidewinder/internal/telemetry"
)

// DefaultShedWakeCostMJ is the fallback energy billed when a wake event
// is shed: the device must surface the wake locally, which on the paper's
// Table 1 numbers costs one asleep→awake transition (384 mW · 1 s), one
// second awake to deliver it (323 mW) and the fall back to sleep
// (341 mW · 1 s) — about 1048 mJ of main-processor energy the hub-of-hubs
// failed to absorb.
const DefaultShedWakeCostMJ = 1048.0

// Self-protection defaults: a silent session holds a goroutine and a
// registry slot, so it is reaped; a stuck client must not block a flush
// forever; and the session cap bounds daemon memory under a dial storm.
const (
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 10 * time.Second
	DefaultMaxSessions  = 8192
)

// enqueueWait is how long a connection reader waits for room in a full
// shard queue before it sheds the frame. Acks go out at enqueue, so a
// client's window does not bound the queue: without the wait, a shard
// worker descheduled for a moment on a busy host lets its readers fill
// the queue and shed frames the worker would have applied an instant
// later. The wait turns such a stall into TCP backpressure; only a queue
// that stays full sheds. Measured stalls (a 4-device replay against six
// CPU-bound processes on a 2-vCPU VM) ran 3-6 ms at the median and 16 ms
// at most, so 100 ms leaves sixfold headroom.
const enqueueWait = 100 * time.Millisecond

// Config parameterizes the ingest daemon.
type Config struct {
	// Addr is the TCP listen address (default 127.0.0.1:7473; use
	// host:0 for an ephemeral port).
	Addr string
	// Shards is the registry/queue shard count (default 16).
	Shards int
	// QueueDepth bounds each shard's ingest queue (default 1024). A queue
	// that stays full for 100 ms sheds: the frame is refused with
	// AckShed, counted and billed.
	QueueDepth int
	// FlushEvery batches this many energy deposits per shard before one
	// ledger flush (default 64). Batches also flush whenever a shard
	// queue empties, so the ledger never lags an idle fleet.
	FlushEvery int
	// CheckpointPath, when set, is loaded on startup (device totals
	// survive restarts; the epoch bumps) and rewritten atomically every
	// CheckpointEvery and on drain. Each write rotates the previous file
	// to CheckpointPath+".bak"; a corrupt newest file falls back to it.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval (default 10 s;
	// ignored without CheckpointPath).
	CheckpointEvery time.Duration
	// HTTPAddr, when set, serves the observability endpoints: /metrics
	// (registry text), /metrics.json, /ledger, /snapshot (checkpoint
	// JSON), /healthz.
	HTTPAddr string
	// ShedWakeCostMJ overrides the fallback billing per shed wake
	// (default DefaultShedWakeCostMJ).
	ShedWakeCostMJ float64
	// IdleTimeout reaps sessions that go silent: every read arms a
	// deadline this far out, so a half-open or stalled client releases
	// its goroutine and connection instead of pinning them forever
	// (default 2 min; counted as fleetd.idle_reaps).
	IdleTimeout time.Duration
	// WriteTimeout bounds each flush toward a client (default 10 s): a
	// peer that stops reading its acks cannot wedge a server goroutine.
	WriteTimeout time.Duration
	// MaxSessions caps concurrent device connections (default 8192).
	// Connections beyond the cap are closed immediately and counted
	// (fleetd.session_rejects) — explicit, visible load shedding rather
	// than unbounded goroutine growth.
	MaxSessions int
	// Telemetry supplies the sinks. Nil Metrics/Ledger fields are
	// replaced with fresh ones: the daemon cannot run blind, its
	// conservation contract is measured on these.
	Telemetry telemetry.Set
	// Logf receives operational log lines (nil: silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7473"
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10 * time.Second
	}
	if c.ShedWakeCostMJ <= 0 {
		c.ShedWakeCostMJ = DefaultShedWakeCostMJ
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.Telemetry.Metrics == nil {
		c.Telemetry.Metrics = telemetry.NewRegistry()
	}
	if c.Telemetry.Ledger == nil {
		c.Telemetry.Ledger = telemetry.NewLedger()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// item kinds on the shard queues.
const (
	itemWake = iota
	itemEnergy
	itemBye
	itemHeartbeat
)

// ingestItem is one queued unit of work for a shard worker.
type ingestItem struct {
	dev    uint64
	kind   int
	wake   WakeEvent
	energy EnergyEvent
	hb     Heartbeat
	seq    uint32             // bye only
	reply  chan DeviceSummary // bye only
	at     time.Time          // enqueue instant, for the queue-delay histogram
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	Devices           int
	Applied           uint64 // queued items applied by shard workers, lifetime
	Wakes             uint64
	Heartbeats        uint64
	Sheds             uint64
	LedgerTotalMJ     float64
	DeviceTotalMJ     float64 // per-device energy + shed billing, summed
	ConservationErrMJ float64
	ConservationOK    bool
	CheckpointPath    string // "" when checkpointing is disabled
}

// Server is the fleet ingest daemon: TCP listener, per-connection frame
// readers, sharded registry, bounded per-shard queues drained by one
// worker each, batched ledger deposits, periodic checkpoints and an
// optional HTTP observability endpoint.
type Server struct {
	cfg      Config
	registry *Registry
	ledger   *telemetry.Ledger
	epoch    uint32

	ln     net.Listener
	httpLn net.Listener
	httpSv *http.Server

	queues    []chan ingestItem
	wgConns   sync.WaitGroup
	wgWorkers sync.WaitGroup
	wgLoops   sync.WaitGroup

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	// sessions maps a device to its one live connection: a second
	// connection for the same device takes the session over (newest
	// wins) and the old connection is torn down.
	sessMu   sync.Mutex
	sessions map[uint64]*sessionHandle

	nSessions atomic.Int64 // live connections, for the MaxSessions cap

	drainCh   chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool

	killCh   chan struct{}
	killOnce sync.Once
	killed   atomic.Bool

	// enqueueWait is the enqueueWait constant; in-package tests set it
	// before Start (zero sheds at once).
	enqueueWait time.Duration

	applied atomic.Uint64

	// Interned metric handles (nil-safe, but the registry always exists).
	cConnsOpened, cConnsClosed          *telemetry.Counter
	cRxFrames, cRxCorrupt, cRxMalformed *telemetry.Counter
	cWakes, cHeartbeats, cEnergy, cByes *telemetry.Counter
	cSheds, cCheckpoints                *telemetry.Counter
	cIdleReaps, cTakeovers              *telemetry.Counter
	cSessionRejects, cDedupAcks         *telemetry.Counter
	cResumes, cCheckpointFallbacks      *telemetry.Counter
	gDevices, gConnected                *telemetry.Gauge
	hQueueDelayMS, hFlushBatch          *telemetry.Histogram
}

// NewServer builds a server (no sockets yet; Start opens them). When the
// config names a checkpoint chain with an intact snapshot, device totals
// are restored, the ledger is re-seeded from them, and the epoch bumps
// past the checkpoint's; a corrupt newest file falls back to the .bak
// snapshot (counted in fleetd.checkpoint_fallbacks).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.Shards),
		ledger:   cfg.Telemetry.Ledger,
		epoch:    1,
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[uint64]*sessionHandle),
		drainCh:  make(chan struct{}),
		killCh:   make(chan struct{}),

		enqueueWait: enqueueWait,
	}
	reg := cfg.Telemetry.Metrics
	s.cConnsOpened = reg.Counter("fleetd.conns_opened")
	s.cConnsClosed = reg.Counter("fleetd.conns_closed")
	s.cRxFrames = reg.Counter("fleetd.rx_frames")
	s.cRxCorrupt = reg.Counter("fleetd.rx_corrupt")
	s.cRxMalformed = reg.Counter("fleetd.rx_malformed")
	s.cWakes = reg.Counter("fleetd.wakes")
	s.cHeartbeats = reg.Counter("fleetd.heartbeats")
	s.cEnergy = reg.Counter("fleetd.energy_frames")
	s.cByes = reg.Counter("fleetd.byes")
	s.cSheds = reg.Counter("fleetd.sheds")
	s.cCheckpoints = reg.Counter("fleetd.checkpoints")
	s.cIdleReaps = reg.Counter("fleetd.idle_reaps")
	s.cTakeovers = reg.Counter("fleetd.takeovers")
	s.cSessionRejects = reg.Counter("fleetd.session_rejects")
	s.cDedupAcks = reg.Counter("fleetd.dedup_acks")
	s.cResumes = reg.Counter("fleetd.resumes")
	s.cCheckpointFallbacks = reg.Counter("fleetd.checkpoint_fallbacks")
	s.gDevices = reg.Gauge("fleetd.devices")
	s.gConnected = reg.Gauge("fleetd.devices_connected")
	s.hQueueDelayMS = reg.Histogram("fleetd.queue_delay_ms",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250})
	s.hFlushBatch = reg.Histogram("fleetd.flush_batch",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})

	if cfg.CheckpointPath != "" {
		cp, info, err := LoadCheckpointDetail(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if info.FellBack {
			s.cCheckpointFallbacks.Inc()
			cfg.Logf("fleetd: newest checkpoint rejected (%v), fell back to %s", info.MainErr, info.Source)
		}
		if info.Source != "" {
			for _, d := range cp.Devices {
				if err := s.registry.restore(d); err != nil {
					return nil, err
				}
				for c, v := range d.EnergyMJ {
					s.ledger.AddEnergyMJ(telemetry.Component(c), v)
				}
				s.ledger.AddEnergyMJ(telemetry.PhoneFallback, d.ShedMJ)
				s.applied.Add(d.Wakes) // best effort: restored work counts as applied
			}
			s.epoch = cp.Epoch + 1
			cfg.Logf("fleetd: restored %d devices from %s (epoch %d)",
				len(cp.Devices), info.Source, s.epoch)
		}
	}

	s.queues = make([]chan ingestItem, cfg.Shards)
	for i := range s.queues {
		s.queues[i] = make(chan ingestItem, cfg.QueueDepth)
	}
	return s, nil
}

// Start opens the TCP listener (and the HTTP endpoint, when configured)
// and launches the accept loop, shard workers and checkpointer.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("fleetd: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	for i := range s.queues {
		s.wgWorkers.Add(1)
		go s.shardWorker(i)
	}
	s.wgLoops.Add(1)
	go s.acceptLoop()
	if s.cfg.CheckpointPath != "" {
		s.wgLoops.Add(1)
		go s.checkpointLoop()
	}
	if s.cfg.HTTPAddr != "" {
		if err := s.startHTTP(); err != nil {
			ln.Close()
			return err
		}
	}
	s.cfg.Logf("fleetd: listening on %s (%d shards, queue depth %d, epoch %d, idle timeout %s, max sessions %d)",
		ln.Addr(), s.cfg.Shards, s.cfg.QueueDepth, s.epoch, s.cfg.IdleTimeout, s.cfg.MaxSessions)
	return nil
}

// Addr returns the bound ingest address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound observability address (empty when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Ledger exposes the daemon's energy ledger.
func (s *Server) Ledger() *telemetry.Ledger { return s.ledger }

// Registry exposes the sharded device registry.
func (s *Server) Registry() *Registry { return s.registry }

// Epoch returns the server boot epoch.
func (s *Server) Epoch() uint32 { return s.epoch }

func (s *Server) acceptLoop() {
	defer s.wgLoops.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal; either way stop accepting
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		if s.nSessions.Add(1) > int64(s.cfg.MaxSessions) {
			s.nSessions.Add(-1)
			s.cSessionRejects.Inc()
			s.cfg.Logf("fleetd: conn %v: session cap %d reached, rejecting", conn.RemoteAddr(), s.cfg.MaxSessions)
			conn.Close()
			continue
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.wgConns.Add(1)
		go s.serveConn(conn)
	}
}

// sessionHandle identifies one connection's claim on a device identity.
// done closes when the connection's reader goroutine has fully exited.
type sessionHandle struct {
	conn net.Conn
	done chan struct{}
}

// adoptSession makes conn the device's one live session. If an older
// connection holds the session, newest wins: the old one is closed and
// counted as a takeover — a device that reconnects after a cut must not
// find its identity held hostage by a half-open ghost. Adoption then
// WAITS for the old reader to exit: the dedup check and watermark
// advance in ingest are two registry calls, so two readers ingesting
// the same device concurrently could double-enqueue a retransmitted
// seq. One reader per device at a time makes check-then-mark atomic.
func (s *Server) adoptSession(deviceID uint64, h *sessionHandle) {
	s.sessMu.Lock()
	old := s.sessions[deviceID]
	s.sessions[deviceID] = h
	s.sessMu.Unlock()
	if old != nil && old.conn != h.conn {
		s.cTakeovers.Inc()
		s.cfg.Logf("fleetd: device %d: session takeover by %v, closing %v",
			deviceID, h.conn.RemoteAddr(), old.conn.RemoteAddr())
		old.conn.Close()
		<-old.done
	}
}

// releaseSession drops the device→handle mapping, but only if the
// mapping is still ours (a takeover may have already replaced it).
func (s *Server) releaseSession(deviceID uint64, h *sessionHandle) {
	s.sessMu.Lock()
	if s.sessions[deviceID] == h {
		delete(s.sessions, deviceID)
	}
	s.sessMu.Unlock()
}

// errBeforeResume reports an event frame on a connection that never
// opened a session with a resume.
var errBeforeResume = errors.New("fleetd: event frame before resume")

// session is one connection's protocol state.
type session struct {
	conn   net.Conn
	bw     *bufio.Writer
	wire   []byte // writeFrame's encode scratch
	dev    uint64
	opened bool
	handle *sessionHandle
}

// writeFrame encodes one protocol frame into the session's scratch and
// writes it to the reply writer, which copies it.
func (sess *session) writeFrame(t link.MsgType, payload []byte) error {
	wire, err := link.AppendEncode(sess.wire[:0], link.Frame{Type: t, Payload: payload})
	if err != nil {
		return err
	}
	sess.wire = wire
	_, err = sess.bw.Write(wire)
	return err
}

// writeAck writes one event acknowledgement.
func (sess *session) writeAck(seq uint32, status byte) error {
	return sess.writeFrame(MsgEventAck, EventAck{Seq: seq, Status: status}.Encode())
}

// connBuf is a connection's read buffer, reply writer, reply encode
// scratch and decoded-frame slice. Only the connection's own goroutine
// touches them, and the link decoder copies every payload it decodes, so
// all four return to connBufPool when the connection ends. Clients that
// open a connection per session (fleetload, a resuming fleet) would
// otherwise make these 32 KiB most of the ingest path's garbage.
type connBuf struct {
	read   []byte
	bw     *bufio.Writer
	wire   []byte
	frames []link.Frame
}

var connBufPool = sync.Pool{New: func() any {
	return &connBuf{read: make([]byte, 1<<14), bw: bufio.NewWriterSize(nil, 1<<14)}
}}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wgConns.Done()
	defer s.nSessions.Add(-1)
	defer func() {
		conn.Close()
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
		s.cConnsClosed.Inc()
	}()
	s.cConnsOpened.Inc()

	var dec link.Decoder
	cb := connBufPool.Get().(*connBuf)
	cb.bw.Reset(conn)
	sess := &session{
		conn:   conn,
		bw:     cb.bw,
		wire:   cb.wire,
		handle: &sessionHandle{conn: conn, done: make(chan struct{})},
	}
	defer func() {
		cb.bw.Reset(nil)
		cb.wire = sess.wire
		clear(cb.frames[:cap(cb.frames)])
		connBufPool.Put(cb)
	}()
	buf := cb.read
	defer close(sess.handle.done) // after this, the reader ingests nothing more
	defer func() {
		if sess.opened {
			s.registry.Disconnect(sess.dev)
			s.releaseSession(sess.dev, sess.handle)
		}
	}()
	flush := func() error {
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		return sess.bw.Flush()
	}
	corrupt, malformed := 0, 0
	for {
		// Arm the idle deadline before every read: a session is entitled
		// to exactly one quiet IdleTimeout, then it is reaped.
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		n, rerr := conn.Read(buf)
		if n > 0 {
			frames, _ := dec.FeedAppend(cb.frames[:0], buf[:n])
			cb.frames = frames
			// The decoder's taxonomy counters classify damage for us:
			// corrupt frames (line damage) are skipped — later frames in
			// the same chunk still decode — while a malformed frame
			// (CRC-valid nonsense) is a peer bug and tears the
			// connection down below.
			if d := dec.Corrupt() - corrupt; d > 0 {
				s.cRxCorrupt.Add(int64(d))
				corrupt = dec.Corrupt()
			}
			teardown := false
			if d := dec.Malformed() - malformed; d > 0 {
				s.cRxMalformed.Add(int64(d))
				malformed = dec.Malformed()
				teardown = true
			}
			for _, f := range frames {
				if err := s.handleFrame(f, sess); err != nil {
					if link.IsMalformed(err) {
						s.cRxMalformed.Inc()
					}
					s.cfg.Logf("fleetd: conn %v: %v", conn.RemoteAddr(), err)
					flush()
					return
				}
			}
			if err := flush(); err != nil {
				return
			}
			if teardown {
				s.cfg.Logf("fleetd: conn %v: malformed frame, closing", conn.RemoteAddr())
				return
			}
		}
		if rerr != nil {
			var nerr net.Error
			if errors.As(rerr, &nerr) && nerr.Timeout() {
				s.cIdleReaps.Inc()
				s.cfg.Logf("fleetd: conn %v: idle for %s, reaping session (device %d)",
					conn.RemoteAddr(), s.cfg.IdleTimeout, sess.dev)
				return
			}
			if rerr != io.EOF && !s.draining.Load() {
				s.cfg.Logf("fleetd: conn %v: read: %v", conn.RemoteAddr(), rerr)
			}
			return
		}
	}
}

func (s *Server) handleFrame(f link.Frame, sess *session) error {
	s.cRxFrames.Inc()
	if f.Type == MsgResume {
		// A resume opens the session: version check, single-introduction
		// check, registry connect and session takeover.
		r, err := DecodeResume(f.Payload)
		if err != nil {
			return err
		}
		if r.Version != ProtocolVersion {
			return fmt.Errorf("fleetd: peer speaks protocol %d, want %d", r.Version, ProtocolVersion)
		}
		if sess.opened {
			return fmt.Errorf("fleetd: duplicate resume from device %d", r.DeviceID)
		}
		sess.dev, sess.opened = r.DeviceID, true
		s.registry.Connect(r.DeviceID)
		s.adoptSession(r.DeviceID, sess.handle)
		s.cResumes.Inc()
		ack := ResumeAck{
			Epoch:    s.epoch,
			Shard:    uint16(s.registry.ShardIndex(r.DeviceID)),
			AckedSeq: s.registry.AckedSeq(r.DeviceID),
		}
		return sess.writeFrame(MsgResumeAck, ack.Encode())
	}
	if !sess.opened {
		return fmt.Errorf("%w (type 0x%02x)", errBeforeResume, byte(f.Type))
	}
	switch f.Type {
	case MsgDeviceHeartbeat:
		hb, err := DecodeHeartbeat(f.Payload)
		if err != nil {
			return err
		}
		// Heartbeats ride the shard queue like every other event so the
		// device's state mutations stay in sequence order — the invariant
		// the resume watermark depends on. Acks are still issued at
		// enqueue, so liveness answers do not wait for the worker. A shed
		// heartbeat bills nothing: it carries no energy.
		return s.ingest(sess, ingestItem{dev: sess.dev, kind: itemHeartbeat, hb: hb}, hb.Seq, 0)
	case MsgDeviceWake:
		w, err := DecodeWakeEvent(f.Payload)
		if err != nil {
			return err
		}
		return s.ingest(sess, ingestItem{dev: sess.dev, kind: itemWake, wake: w},
			w.Seq, s.cfg.ShedWakeCostMJ)
	case MsgDeviceEnergy:
		e, err := DecodeEnergyEvent(f.Payload)
		if err != nil {
			return err
		}
		return s.ingest(sess, ingestItem{dev: sess.dev, kind: itemEnergy, energy: e},
			e.Seq, e.MJ)
	case MsgBye:
		b, err := DecodeBye(f.Payload)
		if err != nil {
			return err
		}
		item := ingestItem{dev: sess.dev, kind: itemBye, seq: b.Seq,
			reply: make(chan DeviceSummary, 1), at: time.Now()}
		// Bye must flush the device, so it blocks rather than sheds; a
		// drain that wins the race tears the connection down instead
		// (the client never saw a bye-ack, so nothing was promised).
		select {
		case s.queues[s.registry.ShardIndex(sess.dev)] <- item:
		case <-s.drainCh:
			return fmt.Errorf("fleetd: draining, bye from device %d refused", sess.dev)
		case <-s.killCh:
			return fmt.Errorf("fleetd: killed, bye from device %d refused", sess.dev)
		}
		// The reply wait needs the same kill escape as the enqueue: a
		// killed shard worker exits without replying, and the reply must
		// not pin this reader past wgConns.Wait (a Kill deadlock). The
		// reply channel is buffered, so a worker that does answer after we
		// bail never blocks on it.
		var sum DeviceSummary
		select {
		case sum = <-item.reply:
		case <-s.killCh:
			return fmt.Errorf("fleetd: killed, bye from device %d dropped", sess.dev)
		}
		return sess.writeFrame(MsgByeAck, sum.Encode())
	default:
		return fmt.Errorf("fleetd: unexpected frame type 0x%02x: %w", byte(f.Type), link.ErrLengthMismatch)
	}
}

// ingest enqueues an event onto its shard queue, acking accepted on
// success. A retransmitted seq (at or below the device's acked watermark)
// is answered AckDup without touching state — exactly-once delivery into
// the ledger survives connection cuts. A queue that stays full for
// enqueueWait is explicit backpressure: the event is refused with
// AckShed, the refusal is counted, and the device's fallback cost is
// billed to phone.fallback — the degradation is visible in every report,
// never a silent drop. An accepted ack is a durability promise: the item
// is in a queue, the acked watermark has advanced past it, and drain
// applies every queued item before exit.
func (s *Server) ingest(sess *session, item ingestItem, seq uint32, shedCostMJ float64) error {
	if s.registry.AlreadyAcked(item.dev, seq) {
		s.cDedupAcks.Inc()
		return sess.writeAck(seq, AckDup)
	}
	item.at = time.Now()
	ok, err := s.enqueue(s.queues[s.registry.ShardIndex(item.dev)], item)
	if err != nil {
		return err
	}
	if ok {
		s.registry.MarkAcked(item.dev, seq)
		return sess.writeAck(seq, AckAccepted)
	}
	s.registry.RecordShed(item.dev, shedCostMJ)
	if shedCostMJ > 0 {
		s.ledger.AddEnergyMJ(telemetry.PhoneFallback, shedCostMJ)
	}
	s.cSheds.Inc()
	return sess.writeAck(seq, AckShed)
}

// enqueue puts item on q, waiting up to enqueueWait for room; false means
// the queue stayed full and the item must be shed. A drain or kill that
// arrives during the wait ends the session without an ack, so the client
// retransmits the frame on its next connection.
func (s *Server) enqueue(q chan<- ingestItem, item ingestItem) (bool, error) {
	select {
	case q <- item:
		return true, nil
	default:
	}
	if s.enqueueWait <= 0 {
		return false, nil
	}
	t := time.NewTimer(s.enqueueWait)
	defer t.Stop()
	select {
	case q <- item:
		return true, nil
	case <-t.C:
		return false, nil
	case <-s.drainCh:
		return false, fmt.Errorf("fleetd: draining, frame from device %d refused", item.dev)
	case <-s.killCh:
		return false, fmt.Errorf("fleetd: killed, frame from device %d refused", item.dev)
	}
}

// shardWorker drains one shard queue: applies items to the registry and
// batches energy deposits into the shared ledger, flushing every
// FlushEvery deposits or whenever the queue runs dry.
func (s *Server) shardWorker(i int) {
	defer s.wgWorkers.Done()
	q := s.queues[i]
	batch := make([]float64, s.registry.ncomp)
	pending := 0
	flush := func() {
		if pending == 0 {
			return
		}
		for c, v := range batch {
			if v != 0 {
				s.ledger.AddEnergyMJ(telemetry.Component(c), v)
				batch[c] = 0
			}
		}
		s.hFlushBatch.Observe(float64(pending))
		pending = 0
	}
	for {
		var item ingestItem
		var ok bool
		select {
		case item, ok = <-q:
			if !ok {
				flush()
				return
			}
		case <-s.killCh:
			// Ungraceful stop: abandon the queue mid-flight. Acked items
			// die with the process — exactly the loss a SIGKILL inflicts,
			// which the checkpoint chain and resume rewind must absorb.
			return
		}
		s.hQueueDelayMS.Observe(float64(time.Since(item.at).Microseconds()) / 1000)
		switch item.kind {
		case itemWake:
			s.registry.applyWake(item.dev, item.wake)
			s.cWakes.Inc()
		case itemEnergy:
			s.registry.applyEnergy(item.dev, item.energy)
			batch[item.energy.Component] += item.energy.MJ
			pending++
		case itemHeartbeat:
			s.registry.RecordHeartbeat(item.dev, item.hb)
			s.cHeartbeats.Inc()
		case itemBye:
			// The summary must reflect every deposit this shard has seen,
			// so the batch flushes first; per-device totals are already
			// current (applied under the shard lock as items arrived).
			flush()
			item.reply <- s.registry.summarize(item.dev, item.seq)
			s.cByes.Inc()
		}
		s.applied.Add(1)
		if pending >= s.cfg.FlushEvery || len(q) == 0 {
			flush()
		}
	}
}

func (s *Server) checkpointLoop() {
	defer s.wgLoops.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.writeCheckpoint(); err != nil {
				s.cfg.Logf("fleetd: periodic checkpoint: %v", err)
			}
		case <-s.drainCh:
			return // drain writes the final checkpoint itself
		case <-s.killCh:
			return
		}
	}
}

func (s *Server) writeCheckpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	if err := WriteCheckpoint(s.cfg.CheckpointPath, s.Snapshot()); err != nil {
		return err
	}
	s.cCheckpoints.Inc()
	return nil
}

// Snapshot builds a checkpoint of the current state. The live
// conservation figure can lag by in-flight ledger batches; the figure in
// the drain report, taken after every queue has been applied and flushed,
// is the authoritative one.
func (s *Server) Snapshot() Checkpoint {
	devs := s.registry.Snapshot()
	s.gDevices.Set(float64(len(devs)))
	s.gConnected.Set(float64(s.registry.Connected()))
	cp := Checkpoint{Epoch: s.epoch, Devices: devs, Ledger: s.ledger.Snapshot()}
	var devTotal float64
	for _, d := range devs {
		devTotal += d.TotalMJ + d.ShedMJ
	}
	cp.ConservationErrMJ = math.Abs(cp.Ledger.TotalMJ - devTotal)
	return cp
}

// conservationOK checks the drain invariant: the ledger total matches the
// per-device totals (energy + shed billing) to one part in 1e9 — the
// batched deposit path reorders float additions, so the tolerance is
// relative, floored at 1e-9 mJ absolute for near-zero fleets.
func conservationOK(errMJ, totalMJ float64) bool {
	return errMJ <= 1e-9*math.Max(1, math.Abs(totalMJ))
}

// Kill stops the server the way SIGKILL would, minus the process exit:
// listener and connections closed, shard queues abandoned mid-flight, no
// final checkpoint. Recovery then starts from whatever the checkpoint
// chain last persisted — exactly the scenario the crash-recovery tests
// must reproduce in-process. Safe to call once; Drain after Kill errors.
func (s *Server) Kill() {
	s.killOnce.Do(func() {
		s.killed.Store(true)
		s.draining.Store(true)
		close(s.killCh)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		if s.httpSv != nil {
			s.httpSv.Close()
		}
		s.wgConns.Wait()
		s.wgWorkers.Wait()
		s.wgLoops.Wait()
	})
}

// Drain performs the graceful shutdown: stop accepting, close every
// connection (no new acks can be issued), apply every already-queued —
// therefore acknowledged — item, flush the ledger batches, write the
// final checkpoint and verify conservation. Safe to call once; returns
// the final report.
func (s *Server) Drain() (DrainReport, error) {
	var rep DrainReport
	var err error
	if s.killed.Load() {
		return rep, errors.New("fleetd: server was killed, nothing to drain")
	}
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		s.wgConns.Wait() // readers exit; nothing can enqueue anymore
		for _, q := range s.queues {
			close(q)
		}
		s.wgWorkers.Wait() // every acknowledged item applied, batches flushed
		if s.httpSv != nil {
			s.httpSv.Close()
		}
		s.wgLoops.Wait()

		cp := s.Snapshot()
		var devTotal float64
		for _, d := range cp.Devices {
			devTotal += d.TotalMJ + d.ShedMJ
		}
		rep = DrainReport{
			Devices:           len(cp.Devices),
			Applied:           s.applied.Load(),
			Wakes:             uint64(s.cWakes.Value()),
			Heartbeats:        uint64(s.cHeartbeats.Value()),
			Sheds:             uint64(s.cSheds.Value()),
			LedgerTotalMJ:     cp.Ledger.TotalMJ,
			DeviceTotalMJ:     devTotal,
			ConservationErrMJ: cp.ConservationErrMJ,
			ConservationOK:    conservationOK(cp.ConservationErrMJ, devTotal),
			CheckpointPath:    s.cfg.CheckpointPath,
		}
		if s.cfg.CheckpointPath != "" {
			if werr := WriteCheckpoint(s.cfg.CheckpointPath, cp); werr != nil {
				err = werr
			} else {
				s.cCheckpoints.Inc()
			}
		}
		s.cfg.Logf("fleetd: drained: %d devices, %d applied, %d shed, ledger %.6f mJ (conservation err %.3g mJ)",
			rep.Devices, rep.Applied, rep.Sheds, rep.LedgerTotalMJ, rep.ConservationErrMJ)
	})
	return rep, err
}

// startHTTP opens the observability endpoint.
func (s *Server) startHTTP() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("fleetd: http listen %s: %w", s.cfg.HTTPAddr, err)
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.cfg.Telemetry.Metrics.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.cfg.Telemetry.Metrics.WriteJSON(w)
	})
	mux.HandleFunc("/ledger", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.ledger.WriteText(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.httpSv = &http.Server{Handler: mux}
	s.wgLoops.Add(1)
	go func() {
		defer s.wgLoops.Done()
		s.httpSv.Serve(ln)
	}()
	return nil
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
