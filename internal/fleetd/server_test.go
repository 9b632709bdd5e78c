package fleetd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sidewinder/internal/link"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// testCell fabricates a cell with distinct, recognizable energy values.
func testCell(wakes int) *sim.FleetCell {
	return &sim.FleetCell{
		Wakes:            wakes,
		PhoneStateMJ:     [4]float64{1.25, 2.5, 3.75, 0.5},
		FallbackEnergyMJ: 4.5,
		HubEnergyMJ:      6.125,
		AvgMW:            100,
	}
}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Drain() })
	return s
}

// TestLoadIdentity is the daemon's anchor test: a population replayed
// over real sockets must leave the daemon with per-device energy totals
// byte-identical to what batch sim.FleetRun records for the same seed,
// and a global ledger that conserves against the batch ledger.
func TestLoadIdentity(t *testing.T) {
	res, batchLedger, err := BuildPopulation(24, 2, 42, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("BuildPopulation: %v", err)
	}
	led := telemetry.NewLedger()
	s := startTestServer(t, Config{Telemetry: telemetry.Set{Ledger: led}})

	rep, err := RunLoad(LoadConfig{Addr: s.Addr()}, res.Cells)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d devices reported summary mismatches", rep.Mismatches)
	}
	if rep.Shed != 0 {
		t.Fatalf("identity run must not shed (default queues), got %d", rep.Shed)
	}
	if rep.Devices != 24 || len(rep.Summaries) != 24 {
		t.Fatalf("report covers %d devices / %d summaries, want 24", rep.Devices, len(rep.Summaries))
	}

	// Per-device identity against the batch cells, bit for bit.
	snap := s.Registry().Snapshot()
	if len(snap) != len(res.Cells) {
		t.Fatalf("registry has %d devices, want %d", len(snap), len(res.Cells))
	}
	for _, d := range snap {
		cell := res.Cells[d.ID-1]
		want := map[telemetry.Component]float64{
			telemetry.PhoneAsleep:        cell.PhoneStateMJ[0],
			telemetry.PhoneWaking:        cell.PhoneStateMJ[1],
			telemetry.PhoneAwake:         cell.PhoneStateMJ[2],
			telemetry.PhoneFallingAsleep: cell.PhoneStateMJ[3],
			telemetry.PhoneFallback:      cell.FallbackEnergyMJ,
			telemetry.HubDevice:          cell.HubEnergyMJ,
		}
		for c, w := range want {
			if got := d.EnergyMJ[c]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("device %d component %s: daemon %v, batch %v", d.ID, c, got, w)
			}
		}
		if d.Wakes != uint64(cell.Wakes) {
			t.Fatalf("device %d wakes: daemon %d, batch %d", d.ID, d.Wakes, cell.Wakes)
		}
	}

	drain, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !drain.ConservationOK {
		t.Fatalf("drain conservation failed: err %g mJ over %g mJ", drain.ConservationErrMJ, drain.DeviceTotalMJ)
	}
	// Global ledger vs the batch reference: accumulation order differs
	// across devices, so the comparison is relative, one part in 1e9.
	got, want := led.TotalMJ(), batchLedger.TotalMJ()
	if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
		t.Fatalf("daemon ledger %.9f mJ, batch ledger %.9f mJ (diff %g)", got, want, diff)
	}
	if rep.EventsPerSec <= 0 || rep.P50ms < 0 || rep.P99ms < rep.P50ms || rep.P999ms < rep.P99ms {
		t.Fatalf("implausible throughput/latency report: %+v", rep)
	}
}

// TestBackpressureShedsAreCountedAndBilled drives the ingest path with the
// shard worker stopped (Start never called), so a depth-1 queue fills
// deterministically: the second event must be refused with AckShed,
// counted, and billed to phone.fallback on both the ledger and the device.
func TestBackpressureShedsAreCountedAndBilled(t *testing.T) {
	reg := telemetry.NewRegistry()
	led := telemetry.NewLedger()
	s, err := NewServer(Config{QueueDepth: 1, Shards: 1, Telemetry: telemetry.Set{Metrics: reg, Ledger: led}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.registry.Connect(1)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)

	ackFor := func() EventAck {
		t.Helper()
		bw.Flush()
		var dec link.Decoder
		frames, err := dec.Feed(buf.Bytes())
		if err != nil || len(frames) == 0 {
			t.Fatalf("decoding ack stream: %v (%d frames)", err, len(frames))
		}
		last := frames[len(frames)-1]
		if last.Type != MsgEventAck {
			t.Fatalf("expected ack frame, got 0x%02x", byte(last.Type))
		}
		ack, err := DecodeEventAck(last.Payload)
		if err != nil {
			t.Fatalf("DecodeEventAck: %v", err)
		}
		return ack
	}

	// First energy frame fits the depth-1 queue.
	if err := s.ingest(bw, ingestItem{dev: 1, kind: itemEnergy,
		energy: EnergyEvent{Seq: 1, Component: telemetry.HubDevice, MJ: 5}}, 1, 5); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if ack := ackFor(); ack.Status != AckAccepted || ack.Seq != 1 {
		t.Fatalf("first event ack = %+v, want accepted seq 1", ack)
	}

	// Second energy frame: queue full, must shed and bill its 7 mJ.
	if err := s.ingest(bw, ingestItem{dev: 1, kind: itemEnergy,
		energy: EnergyEvent{Seq: 2, Component: telemetry.HubDevice, MJ: 7}}, 2, 7); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if ack := ackFor(); ack.Status != AckShed || ack.Seq != 2 {
		t.Fatalf("second event ack = %+v, want shed seq 2", ack)
	}

	// Shed wake: bills the configured wake fallback cost.
	if err := s.ingest(bw, ingestItem{dev: 1, kind: itemWake,
		wake: WakeEvent{Seq: 3}}, 3, s.cfg.ShedWakeCostMJ); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if ack := ackFor(); ack.Status != AckShed {
		t.Fatalf("wake ack = %+v, want shed", ack)
	}

	if got := reg.Counter("fleetd.sheds").Value(); got != 2 {
		t.Fatalf("fleetd.sheds = %d, want 2", got)
	}
	wantBill := 7 + DefaultShedWakeCostMJ
	if got := led.EnergyMJ(telemetry.PhoneFallback); got != wantBill {
		t.Fatalf("phone.fallback billed %v, want %v", got, wantBill)
	}
	snap := s.Registry().Snapshot()
	if len(snap) != 1 || snap[0].Sheds != 2 || snap[0].ShedMJ != wantBill {
		t.Fatalf("device shed record = %+v, want 2 sheds / %v mJ", snap[0], wantBill)
	}
}

// TestFullQueueWaitsBeforeShedding drives the ingest path with the shard
// worker stopped and a depth-1 queue, standing in for a worker that is
// descheduled for a moment. A frame that finds the queue full waits the
// whole enqueueWait before it sheds, and is accepted if a slot frees in
// the meantime. A drain during the wait ends the session with no ack at
// all, so nothing is promised that drain would not apply.
func TestFullQueueWaitsBeforeShedding(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewServer(Config{QueueDepth: 1, Shards: 1, Telemetry: telemetry.Set{Metrics: reg}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.registry.Connect(1)
	wake := func(seq uint32) ingestItem {
		return ingestItem{dev: 1, kind: itemWake, wake: WakeEvent{Seq: seq}}
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := s.ingest(bw, wake(1), 1, s.cfg.ShedWakeCostMJ); err != nil {
		t.Fatalf("ingest seq 1: %v", err)
	}

	// Seq 2 finds the queue full and nothing drains it: shed, but only
	// once the wait has run out.
	s.enqueueWait = 10 * time.Millisecond
	began := time.Now()
	if err := s.ingest(bw, wake(2), 2, s.cfg.ShedWakeCostMJ); err != nil {
		t.Fatalf("ingest seq 2: %v", err)
	}
	if waited := time.Since(began); waited < s.enqueueWait {
		t.Fatalf("seq 2 shed after %v, want a wait of at least %v", waited, s.enqueueWait)
	}

	// Seq 3 finds the queue full too; the "worker" takes seq 1 off it.
	s.enqueueWait = time.Minute
	done := make(chan error, 1)
	go func() { done <- s.ingest(bw, wake(3), 3, s.cfg.ShedWakeCostMJ) }()
	if got := (<-s.queues[0]).wake.Seq; got != 1 {
		t.Fatalf("dequeued seq %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("ingest seq 3: %v", err)
	}
	bw.Flush()
	var dec link.Decoder
	frames, err := dec.Feed(buf.Bytes())
	if err != nil || len(frames) != 3 {
		t.Fatalf("ack stream: %d frames, err %v; want 3", len(frames), err)
	}
	for i, want := range []byte{AckAccepted, AckShed, AckAccepted} {
		ack, err := DecodeEventAck(frames[i].Payload)
		if err != nil || ack.Seq != uint32(i+1) || ack.Status != want {
			t.Fatalf("ack %d = %+v (err %v), want status %d for seq %d", i, ack, err, want, i+1)
		}
	}
	if got := reg.Counter("fleetd.sheds").Value(); got != 1 {
		t.Fatalf("fleetd.sheds = %d, want 1", got)
	}

	// Seq 4 waits behind seq 3; a drain cuts the wait short, unacked.
	buf.Reset()
	go func() { done <- s.ingest(bw, wake(4), 4, s.cfg.ShedWakeCostMJ) }()
	close(s.drainCh)
	if err := <-done; err == nil {
		t.Fatal("ingest during drain succeeded, want an error")
	}
	bw.Flush()
	if buf.Len() != 0 || reg.Counter("fleetd.sheds").Value() != 1 || s.registry.AlreadyAcked(1, 4) {
		t.Fatalf("drain-interrupted frame was answered (%d bytes), shed or acked", buf.Len())
	}
}

// waitUntil polls cond, which reads server state, until it holds; it
// fails the test if that takes more than 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// rawSession is a minimal hand-rolled client for the drain test: it
// pumps frames and records, per sequence number, which were acked
// accepted — tolerating the connection dying mid-stream when the server
// drains out from under it.
type rawSession struct {
	id            uint64
	acceptedWakes uint64
	acceptedMJ    float64
	shed          uint64
}

func (r *rawSession) run(addr string, frames int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fr := &frameReader{conn: conn, buf: make([]byte, 4096)}
	if _, err := conn.Write(mustFrame(MsgHello, Hello{Version: ProtocolVersion, DeviceID: r.id}.Encode())); err != nil {
		return err
	}
	if f, err := fr.next(); err != nil || f.Type != MsgHelloAck {
		return fmt.Errorf("no hello-ack: %v", err)
	}
	type sent struct {
		wake bool
		mj   float64
	}
	pending := make(map[uint32]sent, frames)
	done := make(chan struct{})
	var mu sync.Mutex
	go func() {
		defer close(done)
		for {
			f, err := fr.next()
			if err != nil {
				return // server drained; whatever was acked stands
			}
			if f.Type != MsgEventAck {
				continue
			}
			ack, err := DecodeEventAck(f.Payload)
			if err != nil {
				return
			}
			mu.Lock()
			ev, ok := pending[ack.Seq]
			delete(pending, ack.Seq)
			if ok {
				if ack.Status == AckShed {
					r.shed++
				} else if ev.wake {
					r.acceptedWakes++
				} else {
					r.acceptedMJ += ev.mj
				}
			}
			mu.Unlock()
		}
	}()
	for i := 0; i < frames; i++ {
		seq := uint32(i + 1)
		var wire []byte
		s := sent{}
		if i%2 == 0 {
			s.wake = true
			wire = mustFrame(MsgDeviceWake, WakeEvent{Seq: seq, Node: 1, Value: 1}.Encode())
		} else {
			s.mj = 1.0
			wire = mustFrame(MsgDeviceEnergy, EnergyEvent{Seq: seq, Component: telemetry.HubDevice, MJ: 1}.Encode())
		}
		mu.Lock()
		pending[seq] = s
		mu.Unlock()
		if _, err := conn.Write(wire); err != nil {
			break // drained mid-stream: fine
		}
	}
	// Wait for the outstanding acks (or the server hanging up), then
	// close: the reader exits on either.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		left := len(pending)
		mu.Unlock()
		if left == 0 {
			break
		}
		select {
		case <-done:
			left = 0
		case <-time.After(time.Millisecond):
		}
		if left == 0 {
			break
		}
	}
	conn.Close()
	<-done
	return nil
}

// TestDrainLosesNoAckedEvents interrupts a live load mid-stream and
// proves the durability promise: every event a client saw accepted is in
// the final registry state, and the drained ledger conserves.
func TestDrainLosesNoAckedEvents(t *testing.T) {
	led := telemetry.NewLedger()
	s := startTestServer(t, Config{Shards: 4, QueueDepth: 8, ShedWakeCostMJ: 2,
		Telemetry: telemetry.Set{Ledger: led}})

	const devices = 8
	sessions := make([]rawSession, devices)
	var wg sync.WaitGroup
	for i := range sessions {
		sessions[i].id = uint64(i + 1)
		wg.Add(1)
		go func(r *rawSession) {
			defer wg.Done()
			r.run(s.Addr(), 400)
		}(&sessions[i])
	}
	// Let the stream get going, then yank it.
	waitUntil(t, "the server applied a frame from every session", func() bool {
		applied := 0
		for _, d := range s.Registry().Snapshot() {
			if d.LastSeq > 0 {
				applied++
			}
		}
		return applied == devices
	})
	rep, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()

	byID := make(map[uint64]DeviceStats)
	for _, d := range s.Registry().Snapshot() {
		byID[d.ID] = d
	}
	for i := range sessions {
		r := &sessions[i]
		d, ok := byID[r.id]
		if !ok {
			if r.acceptedWakes > 0 || r.acceptedMJ > 0 {
				t.Fatalf("device %d acked events but is missing from the registry", r.id)
			}
			continue
		}
		// The server may have applied events whose acks never reached the
		// client (closed conn), so server >= client-acked, never less.
		if d.Wakes < r.acceptedWakes {
			t.Fatalf("device %d: %d acked wakes but registry has %d — acked events were lost",
				r.id, r.acceptedWakes, d.Wakes)
		}
		if d.TotalMJ+1e-12 < r.acceptedMJ {
			t.Fatalf("device %d: %.1f acked mJ but registry has %.1f — acked deposits were lost",
				r.id, r.acceptedMJ, d.TotalMJ)
		}
	}
	if !rep.ConservationOK {
		t.Fatalf("conservation failed across drain: err %g mJ", rep.ConservationErrMJ)
	}
	if got := led.TotalMJ(); math.Abs(got-rep.LedgerTotalMJ) > 1e-12 {
		t.Fatalf("report ledger %v != live ledger %v", rep.LedgerTotalMJ, got)
	}
}

// TestCheckpointRestart drains a loaded daemon, restarts from its
// checkpoint, and verifies totals survive with the epoch bumped.
func TestCheckpointRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.checkpoint")
	led := telemetry.NewLedger()
	s := startTestServer(t, Config{CheckpointPath: path, Telemetry: telemetry.Set{Ledger: led}})
	if s.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", s.Epoch())
	}

	r := rawSession{id: 9}
	if err := r.run(s.Addr(), 100); err != nil {
		t.Fatalf("session: %v", err)
	}
	rep, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.CheckpointPath != path {
		t.Fatalf("drain checkpoint path = %q, want %q", rep.CheckpointPath, path)
	}

	s2, err := NewServer(Config{CheckpointPath: path})
	if err != nil {
		t.Fatalf("NewServer from checkpoint: %v", err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("restarted epoch = %d, want 2", s2.Epoch())
	}
	snap, snap2 := s.Registry().Snapshot(), s2.Registry().Snapshot()
	if len(snap2) != len(snap) {
		t.Fatalf("restored %d devices, want %d", len(snap2), len(snap))
	}
	for i := range snap {
		if snap2[i].ID != snap[i].ID || snap2[i].Wakes != snap[i].Wakes ||
			math.Float64bits(snap2[i].TotalMJ) != math.Float64bits(snap[i].TotalMJ) {
			t.Fatalf("device %d: restored %+v, want %+v", snap[i].ID, snap2[i], snap[i])
		}
	}
	cp := s2.Snapshot()
	if !conservationOK(cp.ConservationErrMJ, cp.Ledger.TotalMJ) {
		t.Fatalf("restored ledger does not conserve: err %g mJ", cp.ConservationErrMJ)
	}
}

// TestHTTPEndpoints smoke-checks the observability surface.
func TestHTTPEndpoints(t *testing.T) {
	s := startTestServer(t, Config{HTTPAddr: "127.0.0.1:0"})
	r := rawSession{id: 3}
	if err := r.run(s.Addr(), 10); err != nil {
		t.Fatalf("session: %v", err)
	}
	for _, path := range []string{"/metrics", "/metrics.json", "/ledger", "/snapshot", "/healthz"} {
		resp, err := http.Get("http://" + s.HTTPAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty body", path)
		}
	}
}

// TestBadPeersAreRejected: events before hello, version mismatches and
// malformed payloads all tear the connection down.
func TestBadPeersAreRejected(t *testing.T) {
	s := startTestServer(t, Config{})
	expectClosed := func(name string, frames ...[]byte) {
		t.Helper()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		defer conn.Close()
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				return // already closed on us: fine
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				return // EOF/reset: the server hung up, as required
			}
		}
	}
	expectClosed("wake before hello",
		mustFrame(MsgDeviceWake, WakeEvent{Seq: 1}.Encode()))
	expectClosed("version mismatch",
		mustFrame(MsgHello, Hello{Version: 99, DeviceID: 1}.Encode()))
	expectClosed("truncated hello",
		mustFrame(MsgHello, []byte{1, 2, 3}))
	expectClosed("unknown type after hello",
		mustFrame(MsgHello, Hello{Version: ProtocolVersion, DeviceID: 5}.Encode()),
		mustFrame(link.MsgType(0x7E), []byte{1}))
}

// TestScheduleMatchesDepositOrder pins the load generator's energy frame
// order to FleetCell.DepositEnergy — the identity contract's other half.
func TestScheduleMatchesDepositOrder(t *testing.T) {
	cell := testCell(3)
	frames := schedule(cell, 2, 1)
	// 3 wakes with a heartbeat every 2 wakes -> hb,wake,wake,hb,wake.
	var kinds []int
	var comps []telemetry.Component
	for _, f := range frames {
		kinds = append(kinds, f.kind)
		if f.kind == itemEnergy {
			comps = append(comps, f.component)
		}
	}
	wantKinds := []int{frameHeartbeat, itemWake, itemWake, frameHeartbeat, itemWake,
		itemEnergy, itemEnergy, itemEnergy, itemEnergy, itemEnergy, itemEnergy}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("schedule has %d frames, want %d: %v", len(kinds), len(wantKinds), kinds)
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("frame %d kind = %d, want %d", i, kinds[i], wantKinds[i])
		}
	}
	wantComps := []telemetry.Component{telemetry.PhoneAsleep, telemetry.PhoneWaking,
		telemetry.PhoneAwake, telemetry.PhoneFallingAsleep, telemetry.PhoneFallback, telemetry.HubDevice}
	for i := range comps {
		if comps[i] != wantComps[i] {
			t.Fatalf("energy frame %d component = %s, want %s", i, comps[i], wantComps[i])
		}
	}
	// Sequence numbers must be dense and ascending: acks come back in
	// send order and the client matches them positionally.
	for i, f := range frames {
		if f.seq != uint32(i+1) {
			t.Fatalf("frame %d seq = %d, want %d", i, f.seq, i+1)
		}
	}
}

// TestByeWaitReleasedByKill: a bye can be enqueued just before Kill fires,
// in which case the shard worker exits via killCh without ever replying.
// The connection reader's reply wait must take the same kill escape —
// otherwise it blocks forever and Kill's wgConns.Wait deadlocks. The
// server here is never Started, so no worker will ever answer the bye:
// without the escape this test hangs on the 5s guard.
func TestByeWaitReleasedByKill(t *testing.T) {
	s, err := NewServer(Config{Shards: 1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	sess := &session{bw: bufio.NewWriter(io.Discard), dev: 5, helloed: true}
	done := make(chan error, 1)
	go func() {
		done <- s.handleFrame(link.Frame{Type: MsgBye, Payload: Bye{Seq: 9}.Encode()}, sess)
	}()
	// Let the bye enqueue and park on the reply.
	waitUntil(t, "the bye sits in shard 0's queue", func() bool { return len(s.queues[0]) == 1 })
	s.Kill()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bye during kill must error, not fabricate a bye-ack")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bye reply wait not released by Kill — reader goroutine leaked, Kill would deadlock")
	}
}
