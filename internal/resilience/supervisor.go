package resilience

import (
	"fmt"

	"sidewinder/internal/telemetry"
)

// SupervisorState is the supervisor's belief about the hub.
type SupervisorState int

const (
	// Up: recent evidence of life; no probe outstanding past budget.
	Up SupervisorState = iota
	// Suspect: at least one probe went unanswered; probing harder.
	Suspect
	// Down: the miss budget is exhausted; the hub is declared dead and
	// probed with capped exponential backoff. Fallback sensing runs.
	Down
	// Recovering: the hub answered again after Down (or rebooted behind
	// our back); re-provisioning of the condition set is in progress.
	Recovering
)

// String returns the state's report name.
func (s SupervisorState) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SupervisorConfig tunes the liveness protocol. Zero fields take the
// defaults noted on each; ticks are manager Service passes, the same
// clock the ARQ layer runs on.
type SupervisorConfig struct {
	// PingIntervalTicks is how long the line may stay silent before the
	// supervisor sends an explicit ping (default 8). Inbound traffic of
	// any kind resets the timer — data frames are free heartbeats.
	PingIntervalTicks int
	// TimeoutTicks is how long to wait for a pong before counting a miss
	// (default 8; generous enough for one full ARQ backoff cycle).
	TimeoutTicks int
	// MissBudget is the number of consecutive unanswered probes that
	// flips the supervisor to Down (default 3).
	MissBudget int
	// ProbeBackoffTicks is the initial wait between probes while Down
	// (default 16).
	ProbeBackoffTicks int
	// MaxProbeBackoffTicks caps the Down-state backoff (default 128).
	MaxProbeBackoffTicks int
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.PingIntervalTicks <= 0 {
		c.PingIntervalTicks = 8
	}
	if c.TimeoutTicks <= 0 {
		c.TimeoutTicks = 8
	}
	if c.MissBudget <= 0 {
		c.MissBudget = 3
	}
	if c.ProbeBackoffTicks <= 0 {
		c.ProbeBackoffTicks = 16
	}
	if c.MaxProbeBackoffTicks <= 0 {
		c.MaxProbeBackoffTicks = 128
	}
	return c
}

// Action is what the supervisor wants done after a tick.
type Action struct {
	// Ping asks the manager to send a liveness probe carrying Seq.
	Ping bool
	Seq  uint32
}

// SupervisorStats tallies one supervisor's session.
type SupervisorStats struct {
	PingsSent   int
	PongsHeard  int
	MissedPongs int
	// Detections counts Down declarations; EpochChanges counts reboots
	// caught via the heartbeat epoch rather than by silence.
	Detections   int
	EpochChanges int
	// Reprovisions counts completed recoveries (Recovering -> Up).
	Reprovisions int
	// DownTicks is time spent in Down or Recovering.
	DownTicks int
	// Detection latency, in ticks from the last evidence of life to the
	// Down declaration (or epoch-change detection).
	DetectionCount      int
	DetectionTicksTotal int
	DetectionTicksMax   int
}

// MeanDetectionTicks returns the average detection latency.
func (s SupervisorStats) MeanDetectionTicks() float64 {
	if s.DetectionCount == 0 {
		return 0
	}
	return float64(s.DetectionTicksTotal) / float64(s.DetectionCount)
}

// Supervisor is the manager-side liveness watchdog. The manager calls
// ObserveTraffic for every inbound hub frame, ObservePong for decoded
// pongs, and Tick once per Service pass; a returned Action may ask it to
// transmit a ping. When the hub comes back after an outage the supervisor
// latches a re-provisioning request (TakeReprovision) and holds in
// Recovering until the manager reports completion (ObserveReprovisioned).
// All methods are nil-safe so an unsupervised manager pays nothing.
type Supervisor struct {
	cfg   SupervisorConfig
	state SupervisorState
	stats SupervisorStats

	idleTicks    int    // ticks since last inbound frame
	pingSeq      uint32 // last probe sequence sent
	awaitingPong bool
	pongTimer    int // ticks left to wait for the outstanding pong
	misses       int // consecutive unanswered probes
	backoff      int // current Down-state probe backoff
	backoffLeft  int
	sinceLife    int // ticks since last evidence of life
	reprovision  bool
	stallTicks   int // Recovering watchdog: silence while reprovisioning

	epoch      uint32 // hub boot epoch last seen in a pong
	epochKnown bool

	cPings      *telemetry.Counter
	cMisses     *telemetry.Counter
	cDetections *telemetry.Counter
	cRecoveries *telemetry.Counter
	trace       *telemetry.Stream
}

// NewSupervisor builds a supervisor with the given configuration.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// SetTelemetry attaches counters (supervisor.pings_sent,
// supervisor.missed_pongs, supervisor.detections, supervisor.recoveries)
// and a trace stream that receives state-change instants. Any argument
// may be nil.
func (s *Supervisor) SetTelemetry(reg *telemetry.Registry, trace *telemetry.Stream) {
	if s == nil {
		return
	}
	s.cPings = reg.Counter("supervisor.pings_sent")
	s.cMisses = reg.Counter("supervisor.missed_pongs")
	s.cDetections = reg.Counter("supervisor.detections")
	s.cRecoveries = reg.Counter("supervisor.recoveries")
	s.trace = trace
}

// State returns the supervisor's current belief. Nil-safe (a nil
// supervisor believes the hub is always Up).
func (s *Supervisor) State() SupervisorState {
	if s == nil {
		return Up
	}
	return s.state
}

// Stats returns the session tally. Nil-safe.
func (s *Supervisor) Stats() SupervisorStats {
	if s == nil {
		return SupervisorStats{}
	}
	return s.stats
}

// Config returns the effective (defaulted) configuration.
func (s *Supervisor) Config() SupervisorConfig { return s.cfg }

// setState transitions and traces.
func (s *Supervisor) setState(to SupervisorState) {
	if s.state == to {
		return
	}
	s.state = to
	s.trace.InstantStr("supervisor.state", "supervisor", "state", to.String())
}

// ObserveTraffic records evidence of life: any decodable inbound frame.
// While Down it triggers recovery; while Recovering it feeds the stall
// watchdog. Nil-safe.
func (s *Supervisor) ObserveTraffic() {
	if s == nil {
		return
	}
	s.idleTicks = 0
	s.sinceLife = 0
	s.stallTicks = 0
	switch s.state {
	case Up, Suspect:
		s.misses = 0
		s.awaitingPong = false
		s.setState(Up)
	case Down:
		s.beginRecovery()
	}
}

// ObservePong records a decoded liveness reply; hb carries the hub's
// boot epoch. Nil-safe.
func (s *Supervisor) ObservePong(hb Heartbeat) {
	if s == nil {
		return
	}
	s.stats.PongsHeard++
	s.ObserveTraffic()
	if s.epochKnown && hb.Epoch != s.epoch && (s.state == Up || s.state == Suspect) {
		// The hub answers pings, but with a new boot epoch: it rebooted
		// and lost its condition set without ever going quiet long
		// enough to miss the budget. Skip Down entirely.
		s.stats.EpochChanges++
		s.recordDetection()
		s.beginRecovery()
	}
	s.epoch = hb.Epoch
	s.epochKnown = true
}

// beginRecovery enters Recovering and latches the re-provisioning
// request.
func (s *Supervisor) beginRecovery() {
	s.setState(Recovering)
	s.reprovision = true
	s.stallTicks = 0
	s.awaitingPong = false
	s.misses = 0
	s.backoff = s.cfg.ProbeBackoffTicks
	s.backoffLeft = 0
}

// recordDetection accounts one hub-death detection and its latency.
func (s *Supervisor) recordDetection() {
	s.stats.Detections++
	s.cDetections.Inc()
	s.stats.DetectionCount++
	s.stats.DetectionTicksTotal += s.sinceLife
	if s.sinceLife > s.stats.DetectionTicksMax {
		s.stats.DetectionTicksMax = s.sinceLife
	}
}

// TakeReprovision returns and clears the latched re-provisioning request.
// Nil-safe.
func (s *Supervisor) TakeReprovision() bool {
	if s == nil || !s.reprovision {
		return false
	}
	s.reprovision = false
	return true
}

// ObserveReprovisioned reports that every registered condition has been
// re-pushed and acknowledged; the supervisor returns to Up. Nil-safe.
func (s *Supervisor) ObserveReprovisioned() {
	if s == nil || s.state != Recovering {
		return
	}
	s.stats.Reprovisions++
	s.cRecoveries.Inc()
	s.setState(Up)
	s.idleTicks = 0
	s.sinceLife = 0
}

// Tick advances the supervisor by one manager Service pass and returns
// the action to take. Nil-safe (no action).
func (s *Supervisor) Tick() Action {
	if s == nil {
		return Action{}
	}
	s.sinceLife++
	if s.state == Down || s.state == Recovering {
		s.stats.DownTicks++
	}
	switch s.state {
	case Up, Suspect:
		if s.awaitingPong {
			s.pongTimer--
			if s.pongTimer > 0 {
				return Action{}
			}
			// Probe timed out.
			s.awaitingPong = false
			s.misses++
			s.stats.MissedPongs++
			s.cMisses.Inc()
			if s.misses >= s.cfg.MissBudget {
				s.recordDetection()
				s.setState(Down)
				s.backoff = s.cfg.ProbeBackoffTicks
				s.backoffLeft = s.backoff
				return Action{}
			}
			s.setState(Suspect)
			return s.probe()
		}
		s.idleTicks++
		if s.state == Suspect || s.idleTicks >= s.cfg.PingIntervalTicks {
			return s.probe()
		}
		return Action{}
	case Down:
		s.backoffLeft--
		if s.backoffLeft > 0 {
			return Action{}
		}
		act := s.probe()
		s.backoff = min(s.backoff*2, s.cfg.MaxProbeBackoffTicks)
		s.backoffLeft = s.backoff
		return act
	case Recovering:
		// Stall watchdog: a hub that died again mid-re-provisioning goes
		// quiet; fall back to Down so the fallback keeps sensing and the
		// next recovery latches a fresh re-provisioning pass.
		s.stallTicks++
		if s.stallTicks > s.cfg.TimeoutTicks*s.cfg.MissBudget {
			s.recordDetection()
			s.setState(Down)
			s.backoff = s.cfg.ProbeBackoffTicks
			s.backoffLeft = s.backoff
		}
		return Action{}
	}
	return Action{}
}

// probe arms a ping.
func (s *Supervisor) probe() Action {
	s.pingSeq++
	s.awaitingPong = true
	s.pongTimer = s.cfg.TimeoutTicks
	s.idleTicks = 0
	s.stats.PingsSent++
	s.cPings.Inc()
	return Action{Ping: true, Seq: s.pingSeq}
}
