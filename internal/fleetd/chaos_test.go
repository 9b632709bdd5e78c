package fleetd

import (
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sidewinder/internal/chaosproxy"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// The chaos suite proves the ingest path's end-to-end robustness
// contract: a fleet replay routed through a fault-injecting proxy must
// finish with zero unrecovered devices and per-device energy totals
// bit-for-bit identical to the fault-free run — resets, cuts, bit
// corruption, stalls and partitions included — and a SIGKILL-style stop
// plus restart must recover from the checkpoint chain without losing an
// acked event.

// chaosLoadConfig is the resilient client tuned for fast test runs.
func chaosLoadConfig(addr string) LoadConfig {
	return LoadConfig{
		Addr:        addr,
		Reconnect:   50,
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		AckTimeout:  5 * time.Second,
	}
}

// verifyBitIdentity checks the registry against the batch cells the way
// TestLoadIdentity does: per-device, per-component, bit for bit.
func verifyBitIdentity(t *testing.T, s *Server, cells []sim.FleetCell) {
	t.Helper()
	snap := s.Registry().Snapshot()
	if len(snap) != len(cells) {
		t.Fatalf("registry has %d devices, want %d", len(snap), len(cells))
	}
	for _, d := range snap {
		cell := cells[d.ID-1]
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
}

// TestChaosProfilesEquivalence drives a fleet replay through the chaos
// proxy under every fault profile at three seeds each and demands exact
// equivalence with the fault-free run. Fault rates are cranked well
// above the soak profiles so even a small population sees every fault
// class many times.
func TestChaosProfilesEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos equivalence sweep is not short")
	}
	res, _, err := BuildPopulation(8, 2, 42, 1500*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("BuildPopulation: %v", err)
	}
	profiles := []chaosproxy.Profile{
		{Name: "resets", ResetProb: 0.03, CutProb: 0.03},
		{Name: "corrupt", CorruptProb: 0.08},
		{Name: "combined", ResetProb: 0.01, CutProb: 0.01, CorruptProb: 0.02,
			DelayProb: 0.1, DelayMax: time.Millisecond},
	}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			var faults uint64
			for seed := int64(1); seed <= 3; seed++ {
				led := telemetry.NewLedger()
				s := startTestServer(t, Config{
					Shards:      4,
					IdleTimeout: 2 * time.Second,
					Telemetry:   telemetry.Set{Ledger: led},
				})
				p, err := chaosproxy.New(chaosproxy.Config{
					ListenAddr: "127.0.0.1:0", TargetAddr: s.Addr(),
					Profile: prof, Seed: seed,
				})
				if err != nil {
					t.Fatalf("seed %d: proxy: %v", seed, err)
				}
				p.Start()

				rep, err := RunLoad(chaosLoadConfig(p.Addr()), res.Cells)
				if err != nil {
					t.Fatalf("seed %d: RunLoad through chaos: %v", seed, err)
				}
				if rep.Unrecovered != 0 || rep.Mismatches != 0 {
					t.Fatalf("seed %d: unrecovered=%d mismatches=%d, want 0/0",
						seed, rep.Unrecovered, rep.Mismatches)
				}
				if rep.Shed != 0 {
					t.Fatalf("seed %d: default queues must not shed, got %d", seed, rep.Shed)
				}
				verifyBitIdentity(t, s, res.Cells)

				drain, err := s.Drain()
				if err != nil {
					t.Fatalf("seed %d: Drain: %v", seed, err)
				}
				if !drain.ConservationOK {
					t.Fatalf("seed %d: conservation failed: err %g mJ", seed, drain.ConservationErrMJ)
				}
				st := p.Stats().Snapshot()
				faults += st.Resets + st.Cuts + st.CorruptChunks + st.Delays
				p.Close()
			}
			if faults == 0 {
				t.Fatalf("profile %s injected no faults across 3 seeds — the sweep proved nothing", prof.Name)
			}
		})
	}
}

// TestChaosStallAndPartition covers the time-domain faults: a slow-loris
// stall longer than the client's ack timeout, and a timed blackhole
// partition. Both force ack-timeout reconnects (and, for stalls, session
// takeovers when the stalled connection's bytes finally land).
func TestChaosStallAndPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos timing tests are not short")
	}
	res, _, err := BuildPopulation(4, 2, 43, time.Second, 0)
	if err != nil {
		t.Fatalf("BuildPopulation: %v", err)
	}
	profiles := []chaosproxy.Profile{
		{Name: "stall", StallProb: 0.02, StallDur: 900 * time.Millisecond},
		// Partition open from t=0: the initial resumes are guaranteed to
		// vanish into the blackhole, so recovery is exercised on every run.
		{Name: "partition", PartitionAfter: 0, PartitionDur: 400 * time.Millisecond},
	}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			led := telemetry.NewLedger()
			s := startTestServer(t, Config{
				Shards:      4,
				IdleTimeout: 2 * time.Second,
				Telemetry:   telemetry.Set{Metrics: reg, Ledger: led},
			})
			p, err := chaosproxy.New(chaosproxy.Config{
				ListenAddr: "127.0.0.1:0", TargetAddr: s.Addr(),
				Profile: prof, Seed: 7,
			})
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			p.Start()
			defer p.Close()

			cfg := chaosLoadConfig(p.Addr())
			cfg.AckTimeout = 300 * time.Millisecond // stalls/partitions must become reconnects
			rep, err := RunLoad(cfg, res.Cells)
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if rep.Unrecovered != 0 || rep.Mismatches != 0 {
				t.Fatalf("unrecovered=%d mismatches=%d, want 0/0", rep.Unrecovered, rep.Mismatches)
			}
			verifyBitIdentity(t, s, res.Cells)
			drain, err := s.Drain()
			if err != nil || !drain.ConservationOK {
				t.Fatalf("drain: err=%v conservation err %g mJ", err, drain.ConservationErrMJ)
			}
			st := p.Stats().Snapshot()
			if prof.StallProb > 0 && st.Stalls == 0 {
				t.Fatalf("stall profile never stalled")
			}
			if prof.PartitionDur > 0 && st.BlackholedBytes == 0 {
				t.Fatalf("partition profile never blackholed a byte")
			}
			if prof.PartitionDur > 0 && rep.Reconnects == 0 {
				t.Fatalf("partition run should have forced reconnects, report: %+v", rep)
			}
		})
	}
}

// TestKillRestartRecoversFromCheckpointChain is the crash-recovery
// acceptance test: SIGKILL-style stop mid-load, deliberate corruption of
// the newest checkpoint, restart on the same address — the fleet replay
// must still finish with zero unrecovered devices and exact totals. The
// resume rewind (acked watermark rolled back to the durable applied seq)
// plus server-side dedup is what turns the crash into a non-event.
func TestKillRestartRecoversFromCheckpointChain(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart recovery is not short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")

	// A hand-built population large enough that the kill lands mid-load.
	const devices = 4
	cells := make([]sim.FleetCell, devices)
	for i := range cells {
		cells[i] = *testCell(12000)
	}

	newCfg := func(addr string) Config {
		return Config{
			Addr:            addr,
			Shards:          4,
			CheckpointPath:  path,
			CheckpointEvery: 10 * time.Millisecond,
			Telemetry:       telemetry.Set{Ledger: telemetry.NewLedger()},
		}
	}
	reg1 := telemetry.NewRegistry()
	cfg1 := newCfg("127.0.0.1:0")
	cfg1.Telemetry.Metrics = reg1
	s1, err := NewServer(cfg1)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := s1.Addr()

	cfg := chaosLoadConfig(addr)
	cfg.Window = 32
	cfg.AckTimeout = 2 * time.Second
	type loadResult struct {
		rep *LoadReport
		err error
	}
	loadDone := make(chan loadResult, 1)
	go func() {
		rep, err := RunLoad(cfg, cells)
		loadDone <- loadResult{rep, err}
	}()

	// Wait until the stream is flowing and at least two periodic
	// checkpoints have completed (so the chain holds a .bak), then pull
	// the plug without ceremony. Waiting on these counters rather than a
	// fixed sleep keeps the kill mid-load however fast the load runs; the
	// 10 ms checkpoint interval lands it about 20 ms in, a fifth of the
	// way through an unpaced loopback replay on a 2-vCPU VM.
	ckpts, rx := reg1.Counter("fleetd.checkpoints"), reg1.Counter("fleetd.rx_frames")
	for deadline := time.Now().Add(10 * time.Second); ckpts.Value() < 2 || rx.Value() < 1000; {
		if time.Now().After(deadline) {
			t.Fatalf("no kill point within 10s: %d checkpoints, %d frames received", ckpts.Value(), rx.Value())
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill()
	if _, err := s1.Drain(); err == nil {
		t.Fatal("Drain after Kill should refuse")
	}
	select {
	case r := <-loadDone:
		t.Fatalf("load finished before the kill (rep=%+v err=%v) — population too small to test recovery", r.rep, r.err)
	default:
	}

	// Sabotage the newest checkpoint: recovery must reject it (CRC) and
	// fall back to the .bak snapshot.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if _, err := os.Stat(path + BakSuffix); err != nil {
		t.Fatalf("no .bak in the chain after periodic checkpoints: %v", err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt checkpoint: %v", err)
	}

	// Restart on the same address from the damaged chain.
	reg2 := telemetry.NewRegistry()
	cfg2 := newCfg(addr)
	cfg2.Telemetry.Metrics = reg2
	var s2 *Server
	for attempt := 0; ; attempt++ {
		s2, err = NewServer(cfg2)
		if err != nil {
			t.Fatalf("NewServer from damaged chain: %v", err)
		}
		if err = s2.Start(); err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg2.Counter("fleetd.checkpoint_fallbacks").Value(); got != 1 {
		t.Fatalf("fleetd.checkpoint_fallbacks = %d, want 1", got)
	}
	if s2.Epoch() < 2 {
		t.Fatalf("restarted epoch = %d, want >= 2", s2.Epoch())
	}

	r := <-loadDone
	if r.err != nil {
		t.Fatalf("RunLoad across kill+restart: %v", r.err)
	}
	if r.rep.Unrecovered != 0 || r.rep.Mismatches != 0 {
		t.Fatalf("unrecovered=%d mismatches=%d, want 0/0", r.rep.Unrecovered, r.rep.Mismatches)
	}
	if r.rep.Reconnects == 0 {
		t.Fatalf("a killed server must force reconnects, report: %+v", r.rep)
	}
	if r.rep.Shed != 0 {
		t.Fatalf("recovery run must not shed, got %d", r.rep.Shed)
	}

	verifyBitIdentity(t, s2, cells)
	drain, err := s2.Drain()
	if err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if !drain.ConservationOK {
		t.Fatalf("conservation failed after recovery: err %g mJ", drain.ConservationErrMJ)
	}
}

// resume opens a session for device id on conn and returns the server's
// resume-ack. A first contact passes lastAcked 0.
func resume(t *testing.T, conn net.Conn, fr *frameReader, id uint64, lastAcked uint32) ResumeAck {
	t.Helper()
	if _, err := conn.Write(mustFrame(MsgResume, Resume{Version: ProtocolVersion, DeviceID: id, LastAcked: lastAcked}.Encode())); err != nil {
		t.Fatalf("resume: %v", err)
	}
	f, err := fr.next()
	if err != nil || f.Type != MsgResumeAck {
		t.Fatalf("resume-ack: %v (type %v)", err, f.Type)
	}
	ra, err := DecodeResumeAck(f.Payload)
	if err != nil {
		t.Fatalf("DecodeResumeAck: %v", err)
	}
	return ra
}

// TestIdleSessionIsReaped is the satellite regression test: a client
// that goes silent after resume must be disconnected within the idle
// timeout and counted in fleetd.idle_reaps.
func TestIdleSessionIsReaped(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := startTestServer(t, Config{
		IdleTimeout: 100 * time.Millisecond,
		Telemetry:   telemetry.Set{Metrics: reg},
	})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fr := &frameReader{conn: conn, buf: make([]byte, 4096)}
	resume(t, conn, fr, 11, 0)

	// Now stall. The server must hang up on us, not wait forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatal("server sent data to a silent client")
	} else if time.Since(start) >= 5*time.Second {
		t.Fatal("server never reaped the idle session")
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("fleetd.idle_reaps").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fleetd.idle_reaps never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Registry().Connected() != 0 {
		t.Fatalf("reaped device still counted connected")
	}
}

// TestSessionTakeoverNewestWins: a second connection for the same device
// evicts the first.
func TestSessionTakeoverNewestWins(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := startTestServer(t, Config{Telemetry: telemetry.Set{Metrics: reg}})

	dial := func() (net.Conn, *frameReader) {
		t.Helper()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		fr := &frameReader{conn: conn, buf: make([]byte, 4096), timeout: 5 * time.Second}
		resume(t, conn, fr, 21, 0)
		return conn, fr
	}

	c1, fr1 := dial()
	defer c1.Close()
	c2, fr2 := dial()
	defer c2.Close()

	// The first connection is dead: its next read must fail.
	if _, err := fr1.next(); err == nil {
		t.Fatal("old session survived a takeover")
	}
	if got := reg.Counter("fleetd.takeovers").Value(); got != 1 {
		t.Fatalf("fleetd.takeovers = %d, want 1", got)
	}
	// The new session is fully functional.
	if _, err := c2.Write(mustFrame(MsgDeviceWake, WakeEvent{Seq: 1, Node: 1, Value: 1}.Encode())); err != nil {
		t.Fatalf("wake on new session: %v", err)
	}
	f, err := fr2.next()
	if err != nil || f.Type != MsgEventAck {
		t.Fatalf("ack on new session: %v", err)
	}
	if ack, err := DecodeEventAck(f.Payload); err != nil || ack.Status != AckAccepted {
		t.Fatalf("new session ack = %+v (%v), want accepted", ack, err)
	}
}

// TestMaxSessionsRejectedAndCounted: connections beyond the cap are
// closed immediately and counted.
func TestMaxSessionsRejectedAndCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := startTestServer(t, Config{MaxSessions: 1, Telemetry: telemetry.Set{Metrics: reg}})

	c1, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c1.Close()
	fr1 := &frameReader{conn: c1, buf: make([]byte, 4096), timeout: 5 * time.Second}
	resume(t, c1, fr1, 1, 0)

	c2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial #2: %v", err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was served")
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("fleetd.session_rejects").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fleetd.session_rejects never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeAndDedup exercises the raw resume protocol: watermark
// handback, AckDup on retransmit, and exactly-once application.
func TestResumeAndDedup(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := startTestServer(t, Config{Telemetry: telemetry.Set{Metrics: reg}})

	// Session 1: first contact, two accepted wakes, then the wire "dies".
	c1, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fr1 := &frameReader{conn: c1, buf: make([]byte, 4096), timeout: 5 * time.Second}
	resume(t, c1, fr1, 31, 0)
	for seq := uint32(1); seq <= 2; seq++ {
		if _, err := c1.Write(mustFrame(MsgDeviceWake, WakeEvent{Seq: seq, Node: 1, Value: 1}.Encode())); err != nil {
			t.Fatalf("wake %d: %v", seq, err)
		}
		f, err := fr1.next()
		if err != nil {
			t.Fatalf("ack %d: %v", seq, err)
		}
		if ack, _ := DecodeEventAck(f.Payload); ack.Status != AckAccepted || ack.Seq != seq {
			t.Fatalf("ack = %+v, want accepted seq %d", ack, seq)
		}
	}
	c1.Close()

	// Session 2: resume. The server must hand back watermark 2.
	c2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial #2: %v", err)
	}
	defer c2.Close()
	fr2 := &frameReader{conn: c2, buf: make([]byte, 4096), timeout: 5 * time.Second}
	ra := resume(t, c2, fr2, 31, 1)
	if ra.AckedSeq != 2 {
		t.Fatalf("resume watermark = %d, want 2", ra.AckedSeq)
	}
	if ra.Epoch != s.Epoch() {
		t.Fatalf("resume epoch = %d, want %d", ra.Epoch, s.Epoch())
	}

	// Retransmit seq 2: AckDup, not a second application. Then seq 3.
	if _, err := c2.Write(mustFrame(MsgDeviceWake, WakeEvent{Seq: 2, Node: 1, Value: 1}.Encode())); err != nil {
		t.Fatalf("retransmit: %v", err)
	}
	f, err := fr2.next()
	if err != nil {
		t.Fatalf("dup ack: %v", err)
	}
	if ack, _ := DecodeEventAck(f.Payload); ack.Status != AckDup || ack.Seq != 2 {
		t.Fatalf("retransmit ack = %+v, want dup seq 2", ack)
	}
	if _, err := c2.Write(mustFrame(MsgDeviceWake, WakeEvent{Seq: 3, Node: 1, Value: 1}.Encode())); err != nil {
		t.Fatalf("wake 3: %v", err)
	}
	f, err = fr2.next()
	if err != nil {
		t.Fatalf("ack 3: %v", err)
	}
	if ack, _ := DecodeEventAck(f.Payload); ack.Status != AckAccepted || ack.Seq != 3 {
		t.Fatalf("ack = %+v, want accepted seq 3", ack)
	}

	if got := reg.Counter("fleetd.resumes").Value(); got != 2 {
		t.Fatalf("fleetd.resumes = %d, want 2", got)
	}
	if got := reg.Counter("fleetd.dedup_acks").Value(); got != 1 {
		t.Fatalf("fleetd.dedup_acks = %d, want 1", got)
	}
	c2.Close()
	if _, err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	snap := s.Registry().Snapshot()
	if len(snap) != 1 || snap[0].Wakes != 3 {
		t.Fatalf("device applied %d wakes, want exactly 3 (retransmit must not double-apply): %+v",
			snap[0].Wakes, snap)
	}
}

// TestWatermarkRespectsShedHoles pins the contiguity rule: a shed seq
// must hold the watermark back so the client's retry is re-offered, and
// an accepted seq above the hole must still dedup its retransmits.
func TestWatermarkRespectsShedHoles(t *testing.T) {
	r := NewRegistry(1)
	r.Connect(1)
	r.MarkAcked(1, 1)
	// seq 2 shed (never marked), seq 3 accepted.
	r.MarkAcked(1, 3)
	if got := r.AckedSeq(1); got != 1 {
		t.Fatalf("watermark = %d, want 1 (shed hole at 2)", got)
	}
	if r.AlreadyAcked(1, 2) {
		t.Fatal("shed seq 2 counted as acked — its retry would be wrongly deduped")
	}
	if !r.AlreadyAcked(1, 3) {
		t.Fatal("accepted seq 3 above the hole must dedup")
	}
	// The retry of 2 lands: the watermark sweeps through the absorbed set.
	r.MarkAcked(1, 2)
	if got := r.AckedSeq(1); got != 3 {
		t.Fatalf("watermark after filling the hole = %d, want 3", got)
	}
}

// TestChaosShedsWithReconnectsStayConsistent closes the gap the default
// chaos sweeps leave open: their deep queues never shed, so shed × cut
// interplay went unexercised. Here a depth-1 queue sheds constantly while
// the proxy cuts connections, so shed frames and reconnects coincide on
// every seed. The exactly-once contract under test: a frame the client
// resolved as shed is settled — it must never ride a later connection and
// get accepted (double-billing energy the fallback path already charged).
// The bye-ack cross-check (counts exact, energy bit-for-bit, server sheds
// >= client sheds) is what catches any violation.
func TestChaosShedsWithReconnectsStayConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos shed sweep is not short")
	}
	const devices = 3
	cells := make([]sim.FleetCell, devices)
	for i := range cells {
		cells[i] = *testCell(2000)
	}
	var sheds, reconnects uint64
	for seed := int64(1); seed <= 3; seed++ {
		led := telemetry.NewLedger()
		s, err := NewServer(Config{
			Addr:        "127.0.0.1:0",
			Shards:      1,
			QueueDepth:  1, // full-blast senders against a depth-1 queue: constant sheds
			IdleTimeout: 2 * time.Second,
			Telemetry:   telemetry.Set{Ledger: led},
		})
		if err != nil {
			t.Fatalf("seed %d: NewServer: %v", seed, err)
		}
		s.enqueueWait = 0 // a full queue sheds at once
		if err := s.Start(); err != nil {
			t.Fatalf("seed %d: Start: %v", seed, err)
		}
		t.Cleanup(func() { s.Drain() })
		p, err := chaosproxy.New(chaosproxy.Config{
			ListenAddr: "127.0.0.1:0", TargetAddr: s.Addr(),
			Profile: chaosproxy.Profile{Name: "shed-cuts", ResetProb: 0.01, CutProb: 0.01},
			Seed:    seed,
		})
		if err != nil {
			t.Fatalf("seed %d: proxy: %v", seed, err)
		}
		p.Start()

		rep, err := RunLoad(chaosLoadConfig(p.Addr()), cells)
		if err != nil {
			t.Fatalf("seed %d: RunLoad: %v", seed, err)
		}
		if rep.Unrecovered != 0 || rep.Mismatches != 0 {
			t.Fatalf("seed %d: unrecovered=%d mismatches=%d, want 0/0 — shed/reconnect interplay broke the ledger contract",
				seed, rep.Unrecovered, rep.Mismatches)
		}
		drain, err := s.Drain()
		if err != nil {
			t.Fatalf("seed %d: Drain: %v", seed, err)
		}
		if !drain.ConservationOK {
			t.Fatalf("seed %d: conservation failed: err %g mJ", seed, drain.ConservationErrMJ)
		}
		sheds += rep.Shed
		reconnects += rep.Reconnects
		p.Close()
	}
	if sheds == 0 || reconnects == 0 {
		t.Fatalf("sweep saw %d sheds and %d reconnects across 3 seeds — it proved nothing; crank the pressure",
			sheds, reconnects)
	}
}

// TestSingleConnectionCutIsFatal: with a zero redial budget every device
// dials exactly once, so a device whose connection the proxy kills is
// unrecovered even when it made progress first — progress resets the
// budget only when there is one to reset.
func TestSingleConnectionCutIsFatal(t *testing.T) {
	res, _, err := BuildPopulation(32, 2, 42, 1500*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("BuildPopulation: %v", err)
	}
	s := startTestServer(t, Config{
		Shards:      2,
		IdleTimeout: 2 * time.Second,
		Telemetry:   telemetry.Set{Ledger: telemetry.NewLedger()},
	})
	p, err := chaosproxy.New(chaosproxy.Config{
		ListenAddr: "127.0.0.1:0", TargetAddr: s.Addr(),
		Profile: chaosproxy.Profile{Name: "resets", ResetProb: 0.03, CutProb: 0.03},
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	p.Start()
	defer p.Close()

	cfg := chaosLoadConfig(p.Addr())
	cfg.Reconnect = 0
	rep, err := RunLoad(cfg, res.Cells)
	if rep == nil {
		t.Fatalf("RunLoad: %v", err)
	}
	st := p.Stats().Snapshot()
	if rep.Reconnects != 0 || st.Conns != uint64(len(res.Cells)) {
		t.Fatalf("reconnects=%d, proxy saw %d connections for %d devices; want 0 redials",
			rep.Reconnects, st.Conns, len(res.Cells))
	}
	// A kill always lands before the bye-ack reaches the client, so every
	// killed connection is an unrecovered device; a connection can be
	// killed from both directions at once, so kills only bound it.
	if rep.Unrecovered == 0 || uint64(rep.Unrecovered) > st.Resets+st.Cuts {
		t.Fatalf("unrecovered=%d with %d resets + %d cuts; want 1..kills",
			rep.Unrecovered, st.Resets, st.Cuts)
	}
	if err == nil {
		t.Fatal("RunLoad reported no error for unrecovered devices")
	}
	if rep.Mismatches != 0 || rep.Unrecovered+len(rep.Summaries) != rep.Devices {
		t.Fatalf("mismatches=%d, %d unrecovered + %d verified summaries of %d devices",
			rep.Mismatches, rep.Unrecovered, len(rep.Summaries), rep.Devices)
	}
}
