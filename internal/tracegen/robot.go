package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sidewinder/internal/core"
	"sidewinder/internal/sensor"
)

// RobotConfig parameterizes one synthetic robot run (paper §4.1, "Robotic
// accelerometer traces"). The accelerometer axes follow the paper's frame:
// x is the walking-impact axis, y points front-back (tilts toward +g when
// sitting, dips negative on headbutts), z points up-down (carries gravity
// while standing).
type RobotConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// Duration of the run; the paper's live runs took close to an hour,
	// its groups are defined by idle fraction, not length.
	Duration time.Duration
	// IdleFraction is the share of the run spent standing idle: 0.9 for
	// group 1, 0.5 for group 2, 0.1 for group 3.
	IdleFraction float64
	// RateHz is the accelerometer sampling rate (default
	// core.AccelRateHz).
	RateHz float64
	// Name labels the trace; a default is derived from the parameters.
	Name string
}

// Activity mix of the non-idle time (paper §4.1): 73% walking, 24%
// sit/stand transitions, 3% headbutts.
const (
	robotWalkShare       = 0.73
	robotTransitionShare = 0.24
	robotHeadbuttShare   = 0.03
)

// Physical signature constants. Values are chosen so the paper's detector
// parameter ranges apply verbatim (steps: local maxima of the low-passed
// x-axis in [2.5, 4.5] m/s²; postures: z in [9,11]/[7.5,9.5] and y in
// [-1,1]/[3.5,5.5]; headbutts: y minima in [-6.75, -3.75]).
const (
	gravity = 9.81

	standZ = 9.81
	standY = 0.0
	sitZ   = 8.5
	sitY   = 4.5

	stepPeriodSec = 0.55 // ~1.8 steps/s
	stepPeakMean  = 3.5  // m/s², inside [2.5, 4.5]
	stepPeakJit   = 0.15 // ±15%

	headbuttSec      = 0.6
	headbuttPeakMean = -5.2 // m/s², inside [-6.75, -3.75]
	headbuttPeakJit  = 0.12

	transitionSec   = 1.5
	transitionShake = 0.45 // extra body-motion noise during a transition

	idleNoise = 0.05
	walkNoise = 0.25
	walkYOsc  = 0.5 // lateral sway amplitude while walking
)

// robotPosture tracks whether the robot is standing or sitting.
type robotPosture int

const (
	standing robotPosture = iota
	sitting
)

// Robot synthesizes one scripted robot run. The action list is generated
// randomly from the configured activity budget, mirroring the paper's
// randomized run scripts, and every action logs its exact start/end as
// ground truth.
func Robot(cfg RobotConfig) (*sensor.Trace, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("tracegen: robot run duration must be positive")
	}
	if cfg.IdleFraction < 0 || cfg.IdleFraction >= 1 {
		return nil, fmt.Errorf("tracegen: idle fraction %g outside [0, 1)", cfg.IdleFraction)
	}
	rate := cfg.RateHz
	if rate == 0 {
		rate = core.AccelRateHz
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("robot-idle%02.0f-seed%d", cfg.IdleFraction*100, cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := int(cfg.Duration.Seconds() * rate)

	g := &robotGen{
		rng:     rng,
		rate:    rate,
		x:       make([]float64, 0, total),
		y:       make([]float64, 0, total),
		z:       make([]float64, 0, total),
		posture: standing,
	}

	active := 1 - cfg.IdleFraction
	budget := map[string]int{
		LabelWalk:       int(float64(total) * active * robotWalkShare),
		LabelTransition: int(float64(total) * active * robotTransitionShare),
		LabelHeadbutt:   int(float64(total) * active * robotHeadbuttShare),
	}

	for len(g.x) < total {
		action := g.pickAction(budget, total-len(g.x))
		before := len(g.x)
		switch action {
		case LabelWalk:
			g.walk(jitter(rng, 6, 0.5)) // 3-9 s walking bouts
		case LabelTransition:
			g.transition()
		case LabelHeadbutt:
			g.headbutt()
		default:
			g.idle(jitter(rng, 4, 0.6)) // 1.6-6.4 s idle stretches
		}
		if action != "" {
			budget[action] -= len(g.x) - before
		}
	}

	tr := &sensor.Trace{
		Name:   name,
		RateHz: rate,
		Channels: map[core.SensorChannel][]float64{
			core.AccelX: g.x[:total],
			core.AccelY: g.y[:total],
			core.AccelZ: g.z[:total],
		},
		Events: clampEvents(g.events, total),
		Meta: map[string]string{
			"kind":          "robot",
			"idle_fraction": fmt.Sprintf("%g", cfg.IdleFraction),
		},
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("tracegen: generated invalid robot trace: %w", err)
	}
	return tr, nil
}

// PaperGroups returns the idle fractions of the paper's three run groups.
func PaperGroups() []float64 { return []float64{0.9, 0.5, 0.1} }

// PaperRobotRunSpecs returns the per-run configurations of the paper's
// 18-run set — 9 runs at 90% idle, 6 at 50% and 3 at 10% — plus each run's
// group number (1-3). Run seeds derive from the base seed
// deterministically, so the runs can be generated in any order (or in
// parallel) and still reproduce bit for bit.
func PaperRobotRunSpecs(seed int64, duration time.Duration) (configs []RobotConfig, groups []int) {
	counts := map[float64]int{0.9: 9, 0.5: 6, 0.1: 3}
	run := 0
	for gi, idle := range PaperGroups() {
		for i := 0; i < counts[idle]; i++ {
			configs = append(configs, RobotConfig{
				Seed:         seed + int64(run)*7919,
				Duration:     duration,
				IdleFraction: idle,
				Name:         fmt.Sprintf("robot-g%d-run%d", gi+1, i+1),
			})
			groups = append(groups, gi+1)
			run++
		}
	}
	return configs, groups
}

// robotGen accumulates the three axis streams and ground truth.
type robotGen struct {
	rng     *rand.Rand
	rate    float64
	x, y, z []float64
	events  []sensor.Event
	posture robotPosture
}

// pickAction selects the next scripted action proportionally to the
// remaining activity budgets; when all budgets are spent it idles.
func (g *robotGen) pickAction(budget map[string]int, remaining int) string {
	type cand struct {
		label string
		need  int
	}
	var cands []cand
	totalNeed := 0
	for _, label := range []string{LabelWalk, LabelTransition, LabelHeadbutt} {
		if budget[label] > 0 {
			cands = append(cands, cand{label, budget[label]})
			totalNeed += budget[label]
		}
	}
	if totalNeed == 0 {
		return ""
	}
	// Interleave idle so activity spreads over the run: the chance of an
	// active bout is proportional to how much activity remains relative
	// to remaining time.
	if float64(totalNeed) < float64(remaining) && g.rng.Float64() > float64(totalNeed)/float64(remaining)*1.5 {
		return ""
	}
	pick := g.rng.Intn(totalNeed)
	for _, c := range cands {
		if pick < c.need {
			return c.label
		}
		pick -= c.need
	}
	return ""
}

// postureBase returns the resting orientation for the current posture.
func (g *robotGen) postureBase() (y, z float64) {
	if g.posture == sitting {
		return sitY, sitZ
	}
	return standY, standZ
}

// emit appends one sample with N(0, sigma) noise on every axis.
func (g *robotGen) emit(x, y, z, sigma float64) {
	g.x = append(g.x, x+g.rng.NormFloat64()*sigma)
	g.y = append(g.y, y+g.rng.NormFloat64()*sigma)
	g.z = append(g.z, z+g.rng.NormFloat64()*sigma)
}

// Confounder rates per second of idle time. Real captures are not sterile:
// the robot scuffs a foot, something knocks the platform, the posture
// bounces. These unlabeled motions are what give the paper's classifiers
// their sub-100% precision (§5: Headbutts 89%, Transitions 91%, Walking
// 93%) and give wake-up conditions their "moderate precision" (§2.1.2).
const (
	scuffPerSec  = 1.0 / 80   // step-like x bump
	knockPerSec  = 1.0 / 1100 // headbutt-like y dip
	bouncePerSec = 1.0 / 1500 // brief posture bounce
)

// idle emits roughly sec seconds of resting samples in the current
// posture, sprinkled with rare unlabeled confounder motions.
func (g *robotGen) idle(sec float64) {
	end := len(g.x) + int(sec*g.rate)
	for len(g.x) < end {
		r := g.rng.Float64()
		switch {
		case r < scuffPerSec:
			g.scuff()
		case r < scuffPerSec+knockPerSec:
			g.knock()
		case r < scuffPerSec+knockPerSec+bouncePerSec && g.posture == standing:
			g.bounce()
		default:
			// One quiet second (or whatever remains of the stretch).
			baseY, baseZ := g.postureBase()
			n := int(g.rate)
			if left := end - len(g.x); left < n {
				n = left
			}
			for i := 0; i < n; i++ {
				g.emit(0, baseY, baseZ, idleNoise)
			}
		}
	}
}

// scuff emits a single step-like impact on the x axis: an unlabeled
// motion the step detector will count as a false positive.
func (g *robotGen) scuff() {
	baseY, baseZ := g.postureBase()
	peak := jitter(g.rng, 3.3, 0.2)
	n := int(0.5 * g.rate)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		g.emit(peak*bump(u), baseY, baseZ, idleNoise*2)
	}
}

// knock emits a sharp negative y pulse in the headbutt detector's band:
// an unlabeled jolt to the platform.
func (g *robotGen) knock() {
	baseY, baseZ := g.postureBase()
	peak := jitter(g.rng, -4.4, 0.1)
	n := int(0.4 * g.rate)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		g.emit(0.2*bump(u), baseY+peak*bump(u), baseZ-0.3*bump(u), idleNoise*2)
	}
}

// bounce briefly dips a standing robot into the sitting orientation band
// and back: long enough for the posture classifier to see a flip, which
// the ground truth does not record.
func (g *robotGen) bounce() {
	n := int(2.2 * g.rate)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		s := bump(u) // 0 -> 1 -> 0
		y := standY + (sitY-standY)*s
		z := standZ + (sitZ-standZ)*s
		g.emit(0.3*bump(u), y, z, idleNoise+0.3*bump(u))
	}
}

// walk emits a walking bout of roughly sec seconds as a sequence of step
// impulses on the x axis, each labeled as a ground-truth step; the whole
// bout is additionally labeled as a walk segment. A sitting robot stands up
// first (emitting a transition).
func (g *robotGen) walk(sec float64) {
	if g.posture == sitting {
		g.transition()
	}
	start := len(g.x)
	stepSamples := int(stepPeriodSec * g.rate)
	steps := int(sec / stepPeriodSec)
	if steps < 1 {
		steps = 1
	}
	for s := 0; s < steps; s++ {
		peak := jitter(g.rng, stepPeakMean, stepPeakJit)
		phase := g.rng.Float64() * 2 * math.Pi
		stepStart := len(g.x)
		for i := 0; i < stepSamples; i++ {
			u := float64(i) / float64(stepSamples)
			x := peak * bump(u)
			y := standY + walkYOsc*math.Sin(2*math.Pi*u+phase)
			z := standZ + 0.2*math.Sin(4*math.Pi*u)
			g.emit(x, y, z, walkNoise)
		}
		g.events = append(g.events, sensor.Event{Label: LabelStep, Start: stepStart, End: len(g.x)})
	}
	g.events = insertSorted(g.events, sensor.Event{Label: LabelWalk, Start: start, End: len(g.x)})
}

// transition emits a sit-to-stand or stand-to-sit posture change with the
// body shake real transitions exhibit, and flips the posture.
func (g *robotGen) transition() {
	fromY, fromZ := g.postureBase()
	if g.posture == standing {
		g.posture = sitting
	} else {
		g.posture = standing
	}
	toY, toZ := g.postureBase()
	start := len(g.x)
	n := int(transitionSec * g.rate)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		s := smoothstep(u)
		y := fromY + (toY-fromY)*s
		z := fromZ + (toZ-fromZ)*s
		// Body-motion shake peaks mid-transition.
		g.emit(0.4*bump(u), y, z, idleNoise+transitionShake*bump(u))
	}
	g.events = append(g.events, sensor.Event{Label: LabelTransition, Start: start, End: len(g.x)})
}

// headbutt emits a sudden forward head movement: a sharp negative y pulse.
// A sitting robot stands up first.
func (g *robotGen) headbutt() {
	if g.posture == sitting {
		g.transition()
	}
	start := len(g.x)
	peak := jitter(g.rng, headbuttPeakMean, headbuttPeakJit)
	n := int(headbuttSec * g.rate)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		g.emit(0.3*bump(u), standY+peak*bump(u), standZ-0.5*bump(u), idleNoise*2)
	}
	g.events = append(g.events, sensor.Event{Label: LabelHeadbutt, Start: start, End: len(g.x)})
}

// insertSorted inserts e keeping events ordered by start index.
func insertSorted(events []sensor.Event, e sensor.Event) []sensor.Event {
	i := len(events)
	for i > 0 && events[i-1].Start > e.Start {
		i--
	}
	events = append(events, sensor.Event{})
	copy(events[i+1:], events[i:])
	events[i] = e
	return events
}

// clampEvents drops or trims events extending past the trace end.
func clampEvents(events []sensor.Event, total int) []sensor.Event {
	var out []sensor.Event
	for _, e := range events {
		if e.Start >= total {
			continue
		}
		if e.End > total {
			e.End = total
		}
		if e.End > e.Start {
			out = append(out, e)
		}
	}
	return out
}
