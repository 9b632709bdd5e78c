package resilience

import (
	"bytes"
	"errors"
	"testing"

	"sidewinder/internal/telemetry"
)

// --- heartbeat codec ---

func TestHeartbeatRoundTrip(t *testing.T) {
	for _, hb := range []Heartbeat{
		{},
		{Seq: 1, Epoch: 1},
		{Seq: 0xDEADBEEF, Epoch: 0x01020304},
		{Seq: 0xFFFFFFFF, Epoch: 0xFFFFFFFF},
	} {
		wire := hb.Encode()
		if len(wire) != HeartbeatSize {
			t.Fatalf("Encode(%+v) = %d bytes, want %d", hb, len(wire), HeartbeatSize)
		}
		got, err := DecodeHeartbeat(wire)
		if err != nil {
			t.Fatalf("DecodeHeartbeat(%+v): %v", hb, err)
		}
		if got != hb {
			t.Fatalf("round trip: got %+v, want %+v", got, hb)
		}
	}
}

func TestHeartbeatDecodeBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 7, 9, 64} {
		_, err := DecodeHeartbeat(bytes.Repeat([]byte{0xAA}, n))
		if !errors.Is(err, ErrBadHeartbeat) {
			t.Fatalf("DecodeHeartbeat(%d bytes): err = %v, want ErrBadHeartbeat", n, err)
		}
	}
}

// --- crash injector ---

func TestCrashInjectorDisabledProfile(t *testing.T) {
	c, err := NewCrashInjector(CrashProfile{})
	if err != nil {
		t.Fatalf("NewCrashInjector(zero): %v", err)
	}
	if c != nil {
		t.Fatalf("disabled profile should yield a nil injector")
	}
	// Nil injector is a hub that never crashes.
	if c.Down() {
		t.Fatalf("nil injector reports Down")
	}
	if tr := c.Tick(); tr.Onset || tr.Recovered {
		t.Fatalf("nil injector produced a transition: %+v", tr)
	}
	if s := c.Stats(); s != (CrashStats{}) {
		t.Fatalf("nil injector stats = %+v, want zero", s)
	}
}

func TestCrashInjectorValidate(t *testing.T) {
	bad := []CrashProfile{
		{MTBFTicks: -1},
		{MTBFTicks: 100, MeanDownTicks: -2},
		{MTBFTicks: 100, MaxDownTicks: -1},
		{MTBFTicks: 100, ResetWeight: -0.5},
	}
	for _, p := range bad {
		if _, err := NewCrashInjector(p); err == nil {
			t.Fatalf("NewCrashInjector(%+v) accepted an invalid profile", p)
		}
	}
}

func TestCrashInjectorDeterminism(t *testing.T) {
	profile := CrashProfile{Seed: 42, MTBFTicks: 50, MeanDownTicks: 8}
	run := func() []Transition {
		c, err := NewCrashInjector(profile)
		if err != nil {
			t.Fatalf("NewCrashInjector: %v", err)
		}
		var trs []Transition
		for i := 0; i < 2000; i++ {
			if tr := c.Tick(); tr.Onset || tr.Recovered {
				trs = append(trs, tr)
			}
		}
		return trs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("no crashes in 2000 ticks at MTBF 50")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d transitions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCrashInjectorOutageShape(t *testing.T) {
	c, err := NewCrashInjector(CrashProfile{Seed: 7, MTBFTicks: 30, MeanDownTicks: 5})
	if err != nil {
		t.Fatalf("NewCrashInjector: %v", err)
	}
	downRun := 0
	sawOutage := false
	for i := 0; i < 5000; i++ {
		tr := c.Tick()
		if tr.Onset && tr.Recovered {
			t.Fatalf("tick %d: onset and recovery on the same tick", i)
		}
		if tr.Onset {
			if downRun != 0 {
				t.Fatalf("tick %d: onset while already down", i)
			}
			if !c.Down() {
				t.Fatalf("tick %d: onset tick must already be down", i)
			}
		}
		if tr.Recovered {
			if downRun == 0 {
				t.Fatalf("tick %d: recovery without an outage", i)
			}
			if c.Down() {
				t.Fatalf("tick %d: recovery tick must already be up", i)
			}
			sawOutage = true
			downRun = 0
		}
		if c.Down() {
			downRun++
		}
	}
	if !sawOutage {
		t.Fatalf("no complete outage observed in 5000 ticks")
	}
	st := c.Stats()
	if st.Crashes == 0 || st.DownTicks == 0 {
		t.Fatalf("stats did not accumulate: %+v", st)
	}
	if st.Resets+st.Hangs+st.Brownouts != st.Crashes {
		t.Fatalf("kind tallies %d+%d+%d != crashes %d", st.Resets, st.Hangs, st.Brownouts, st.Crashes)
	}
}

func TestScheduledCrashInjector(t *testing.T) {
	c := NewScheduledCrashInjector([]ScheduledCrash{
		{AtTick: 3, Kind: Hang, DownTicks: 2},
		{AtTick: 4, Kind: Reset, DownTicks: 1}, // falls inside the hang; coalesced away
		{AtTick: 10, Kind: Brownout, DownTicks: 1},
	})
	var down []bool
	var events []string
	for i := 0; i < 14; i++ {
		tr := c.Tick()
		if tr.Onset {
			events = append(events, tr.Kind.String()+"-onset")
		}
		if tr.Recovered {
			events = append(events, tr.Kind.String()+"-up")
		}
		down = append(down, c.Down())
	}
	wantEvents := []string{"hang-onset", "hang-up", "brownout-onset", "brownout-up"}
	if len(events) != len(wantEvents) {
		t.Fatalf("events = %v, want %v", events, wantEvents)
	}
	for i := range events {
		if events[i] != wantEvents[i] {
			t.Fatalf("events = %v, want %v", events, wantEvents)
		}
	}
	// Outage covers ticks [3,5) and [10,11).
	wantDown := []bool{false, false, false, true, true, false, false, false, false, false, true, false, false, false}
	for i := range down {
		if down[i] != wantDown[i] {
			t.Fatalf("down timeline = %v, want %v", down, wantDown)
		}
	}
	st := c.Stats()
	if st.Crashes != 2 || st.Hangs != 1 || st.Brownouts != 1 || st.Resets != 0 {
		t.Fatalf("stats = %+v, want 1 hang + 1 brownout", st)
	}
	if st.DownTicks != 3 {
		t.Fatalf("DownTicks = %d, want 3", st.DownTicks)
	}
}

func TestCrashKindLosesState(t *testing.T) {
	if !Reset.LosesState() || !Brownout.LosesState() {
		t.Fatalf("Reset and Brownout must lose state")
	}
	if Hang.LosesState() {
		t.Fatalf("Hang must retain state")
	}
}

// --- supervisor ---

// stepQuiet ticks the supervisor n times with a silent line, answering no
// pings, and returns how many pings it asked for.
func stepQuiet(s *Supervisor, n int) int {
	pings := 0
	for i := 0; i < n; i++ {
		if s.Tick().Ping {
			pings++
		}
	}
	return pings
}

func testConfig() SupervisorConfig {
	return SupervisorConfig{PingIntervalTicks: 4, TimeoutTicks: 3, MissBudget: 2, ProbeBackoffTicks: 4, MaxProbeBackoffTicks: 16}
}

func TestSupervisorDefaults(t *testing.T) {
	s := NewSupervisor(SupervisorConfig{})
	cfg := s.Config()
	if cfg.PingIntervalTicks != 8 || cfg.TimeoutTicks != 8 || cfg.MissBudget != 3 ||
		cfg.ProbeBackoffTicks != 16 || cfg.MaxProbeBackoffTicks != 128 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if s.State() != Up {
		t.Fatalf("initial state = %v, want up", s.State())
	}
}

func TestSupervisorNilSafe(t *testing.T) {
	var s *Supervisor
	if s.State() != Up {
		t.Fatalf("nil supervisor state = %v, want up", s.State())
	}
	if s.Tick().Ping {
		t.Fatalf("nil supervisor asked for a ping")
	}
	s.ObserveTraffic()
	s.ObservePong(Heartbeat{})
	s.ObserveReprovisioned()
	s.SetTelemetry(nil, nil)
	if s.TakeReprovision() {
		t.Fatalf("nil supervisor latched a reprovision")
	}
	if s.Stats() != (SupervisorStats{}) {
		t.Fatalf("nil supervisor stats nonzero")
	}
}

// TestSupervisorDetection walks the happy detection path: idle pings, a
// dead hub, Down after the miss budget, backoff probing, then recovery and
// re-provisioning.
func TestSupervisorDetection(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewSupervisor(testConfig())
	s.SetTelemetry(reg, nil)

	// Answered pings keep it Up.
	for round := 0; round < 3; round++ {
		sawPing := false
		for i := 0; i < 10 && !sawPing; i++ {
			if s.Tick().Ping {
				sawPing = true
			}
		}
		if !sawPing {
			t.Fatalf("no ping on an idle line")
		}
		s.ObservePong(Heartbeat{Seq: uint32(round + 1), Epoch: 1})
		if s.State() != Up {
			t.Fatalf("state after pong = %v, want up", s.State())
		}
	}

	// Hub goes silent. Detection must land within
	// interval + budget*(timeout+1) ticks, and not before budget misses.
	cfg := s.Config()
	ticks := 0
	for s.State() != Down {
		s.Tick()
		ticks++
		if ticks > cfg.PingIntervalTicks+cfg.MissBudget*(cfg.TimeoutTicks+2) {
			t.Fatalf("no Down declaration after %d silent ticks (state %v)", ticks, s.State())
		}
	}
	st := s.Stats()
	if st.Detections != 1 {
		t.Fatalf("Detections = %d, want 1", st.Detections)
	}
	if st.MissedPongs != cfg.MissBudget {
		t.Fatalf("MissedPongs = %d, want %d", st.MissedPongs, cfg.MissBudget)
	}
	if st.DetectionCount != 1 || st.DetectionTicksMax < cfg.TimeoutTicks {
		t.Fatalf("detection latency not recorded: %+v", st)
	}
	if got := reg.Counter("supervisor.detections").Value(); got != 1 {
		t.Fatalf("detections counter = %d, want 1", got)
	}

	// Down: probes back off, capped.
	probeGaps := []int{}
	gap := 0
	for len(probeGaps) < 5 {
		if s.Tick().Ping {
			probeGaps = append(probeGaps, gap)
			gap = 0
		} else {
			gap++
		}
	}
	for i := 1; i < len(probeGaps); i++ {
		if probeGaps[i] < probeGaps[i-1] && probeGaps[i-1] < cfg.MaxProbeBackoffTicks-1 {
			t.Fatalf("probe gaps not non-decreasing below the cap: %v", probeGaps)
		}
		if probeGaps[i] > cfg.MaxProbeBackoffTicks {
			t.Fatalf("probe gap %d exceeds cap %d: %v", probeGaps[i], cfg.MaxProbeBackoffTicks, probeGaps)
		}
	}

	// Hub answers: Recovering, reprovision latched exactly once.
	s.ObservePong(Heartbeat{Seq: 99, Epoch: 2})
	if s.State() != Recovering {
		t.Fatalf("state after pong while Down = %v, want recovering", s.State())
	}
	if !s.TakeReprovision() {
		t.Fatalf("reprovision not latched on recovery")
	}
	if s.TakeReprovision() {
		t.Fatalf("reprovision latch did not clear")
	}

	// Manager finishes re-pushing: Up again.
	s.ObserveReprovisioned()
	if s.State() != Up {
		t.Fatalf("state after reprovision = %v, want up", s.State())
	}
	if s.Stats().Reprovisions != 1 {
		t.Fatalf("Reprovisions = %d, want 1", s.Stats().Reprovisions)
	}
	if got := reg.Counter("supervisor.recoveries").Value(); got != 1 {
		t.Fatalf("recoveries counter = %d, want 1", got)
	}
}

// TestSupervisorTrafficIsLife checks that ordinary inbound frames count as
// heartbeats: a chatty hub is never pinged.
func TestSupervisorTrafficIsLife(t *testing.T) {
	s := NewSupervisor(testConfig())
	for i := 0; i < 100; i++ {
		s.ObserveTraffic()
		if s.Tick().Ping {
			t.Fatalf("tick %d: pinged a hub that talks every tick", i)
		}
	}
	if s.State() != Up {
		t.Fatalf("state = %v, want up", s.State())
	}
	if s.Stats().PingsSent != 0 {
		t.Fatalf("PingsSent = %d, want 0", s.Stats().PingsSent)
	}
}

// TestSupervisorEpochChange checks the silent-reboot path: the hub answers
// every ping but its boot epoch changed, so the supervisor must go
// straight to Recovering without ever passing through Down.
func TestSupervisorEpochChange(t *testing.T) {
	s := NewSupervisor(testConfig())
	stepQuiet(s, s.Config().PingIntervalTicks)
	s.ObservePong(Heartbeat{Seq: 1, Epoch: 1})
	if s.State() != Up {
		t.Fatalf("state = %v, want up", s.State())
	}
	stepQuiet(s, s.Config().PingIntervalTicks)
	s.ObservePong(Heartbeat{Seq: 2, Epoch: 2}) // rebooted between probes
	if s.State() != Recovering {
		t.Fatalf("state after epoch change = %v, want recovering", s.State())
	}
	st := s.Stats()
	if st.EpochChanges != 1 || st.Detections != 1 {
		t.Fatalf("stats after epoch change: %+v", st)
	}
	if !s.TakeReprovision() {
		t.Fatalf("epoch change did not latch a reprovision")
	}
	// Same epoch again afterwards: no new detection.
	s.ObserveReprovisioned()
	stepQuiet(s, s.Config().PingIntervalTicks)
	s.ObservePong(Heartbeat{Seq: 3, Epoch: 2})
	if s.State() != Up || s.Stats().EpochChanges != 1 {
		t.Fatalf("stable epoch treated as a reboot: state %v stats %+v", s.State(), s.Stats())
	}
}

// TestSupervisorRecoveringStall checks the watchdog: a hub that dies again
// mid-re-provisioning drops the supervisor back to Down, and the next
// recovery latches a fresh re-provisioning pass.
func TestSupervisorRecoveringStall(t *testing.T) {
	s := NewSupervisor(testConfig())
	cfg := s.Config()
	// Drive to Down, then to Recovering.
	stepQuiet(s, cfg.PingIntervalTicks+cfg.MissBudget*(cfg.TimeoutTicks+2))
	if s.State() != Down {
		t.Fatalf("setup: state = %v, want down", s.State())
	}
	s.ObserveTraffic()
	if s.State() != Recovering || !s.TakeReprovision() {
		t.Fatalf("setup: recovery did not latch")
	}
	// Hub dies again before the re-push completes: total silence.
	stall := cfg.TimeoutTicks*cfg.MissBudget + 2
	stepQuiet(s, stall)
	if s.State() != Down {
		t.Fatalf("state after %d stalled ticks = %v, want down", stall, s.State())
	}
	if s.Stats().Detections != 2 {
		t.Fatalf("Detections = %d, want 2", s.Stats().Detections)
	}
	// Second recovery latches again.
	s.ObserveTraffic()
	if s.State() != Recovering || !s.TakeReprovision() {
		t.Fatalf("second recovery did not latch a fresh reprovision")
	}
	// Steady traffic while Recovering keeps the watchdog fed.
	for i := 0; i < 10*stall; i++ {
		s.ObserveTraffic()
		s.Tick()
	}
	if s.State() != Recovering {
		t.Fatalf("fed watchdog still fired: state = %v", s.State())
	}
	s.ObserveReprovisioned()
	if s.State() != Up || s.Stats().Reprovisions != 1 {
		t.Fatalf("final state %v, reprovisions %d", s.State(), s.Stats().Reprovisions)
	}
}

// TestSupervisorDownTicksAccounting checks that DownTicks covers the whole
// Down + Recovering span.
func TestSupervisorDownTicksAccounting(t *testing.T) {
	s := NewSupervisor(testConfig())
	cfg := s.Config()
	stepQuiet(s, cfg.PingIntervalTicks+cfg.MissBudget*(cfg.TimeoutTicks+2))
	if s.State() != Down {
		t.Fatalf("setup: state = %v, want down", s.State())
	}
	before := s.Stats().DownTicks
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if got := s.Stats().DownTicks - before; got != 10 {
		t.Fatalf("DownTicks advanced by %d over 10 down ticks", got)
	}
	s.ObserveTraffic() // Recovering also counts as down time
	before = s.Stats().DownTicks
	for i := 0; i < 3; i++ {
		s.ObserveTraffic()
		s.Tick()
	}
	if got := s.Stats().DownTicks - before; got != 3 {
		t.Fatalf("DownTicks advanced by %d over 3 recovering ticks", got)
	}
}
