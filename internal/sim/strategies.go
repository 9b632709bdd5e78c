package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// Configuration constants shared by the strategies (paper §4.2).
const (
	// dutyAwakeSec is the duty-cycling data-collection window: "wake-up
	// at fixed time intervals to collect sensor data for 4 seconds".
	dutyAwakeSec = 4.0
	// paHoldSec keeps a predefined-activity wake-up alive while
	// significant activity recurs within this horizon.
	paHoldSec = 2.0
	// swIdleHoldSec puts the phone back to sleep after this long without
	// the Sidewinder condition firing.
	swIdleHoldSec = 1.5
)

// ---------------------------------------------------------------- helpers

// clock tracks simulated time against a phone state machine. When a
// telemetry clock is attached, simulated time is mirrored into it so
// trace streams stamp events at the right position on the timeline.
type clock struct {
	ph   *power.Phone
	t    float64 // seconds since trace start
	rate float64
	n    int // trace length in samples
	tclk *telemetry.Clock
}

func (c *clock) advance(dt float64) {
	c.ph.Advance(dt)
	c.t += dt
	c.tclk.SetSec(c.t)
}

// advanceSteps equals k successive advance(dt) calls on a phone that is
// asleep or awake: it cannot change state, so no transition hook reads the
// telemetry clock in between, and the clock is set once at the end. Its
// one caller, wakeWindow.replay, reads c.t only through the telemetry
// clock, so without one the per-step sum is skipped.
func (c *clock) advanceSteps(dt float64, k int) {
	c.ph.AdvanceSteps(dt, k)
	if c.tclk == nil {
		return
	}
	t := c.t
	for ; k > 0; k-- {
		t += dt
	}
	c.t = t
	c.tclk.SetSec(t)
}

// advanceTransition equals successive advance(dt) calls on a phone that is
// mid-transition, up to k of them, stopping after the one in which the
// transition completes, and returns how many it made. The transition hook
// reads the telemetry clock at that step, so with a clock attached the
// steps are made one at a time, each setting it as advance does; without
// one the phone folds them.
func (c *clock) advanceTransition(dt float64, k int) int {
	if c.tclk == nil {
		return c.ph.AdvanceTransition(dt, k)
	}
	from := c.ph.State()
	for s := 1; s <= k; s++ {
		c.advance(dt)
		if c.ph.State() != from {
			return s
		}
	}
	return k
}

// sampleAt converts a time to a clamped sample index.
func (c *clock) sampleAt(t float64) int {
	i := int(t * c.rate)
	if i < 0 {
		i = 0
	}
	if i > c.n {
		i = c.n
	}
	return i
}

func (c *clock) endSec() float64 { return float64(c.n) / c.rate }

// trace attaches a telemetry clock when set is enabled, traces the
// phone's state transitions on a "phone" stream, and returns the "hub"
// stream (nil when disabled).
func (c *clock) trace(set telemetry.Set) *telemetry.Stream {
	if !set.Enabled() {
		return nil
	}
	c.tclk = &telemetry.Clock{}
	phoneStream := set.Tracer.Stream("phone", c.tclk)
	hubStream := set.Tracer.Stream("hub", c.tclk)
	tracePhoneTransitions(c.ph, phoneStream)
	return hubStream
}

// --------------------------------------------------------- Always Awake

// AlwaysAwake keeps the main processor awake for the entire trace: the
// upper power bound and the recall/precision reference (paper §5.1).
type AlwaysAwake struct{}

// Name implements Strategy.
func (AlwaysAwake) Name() string { return "always-awake" }

// Run implements Strategy.
func (AlwaysAwake) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	ph := power.NewPhoneAwake(power.Nexus4())
	ph.Advance(float64(tr.Len()) / tr.RateHz)
	return finish("always-awake", tr, app, ph, 0, []Interval{{0, tr.Len()}}), nil
}

// ----------------------------------------------------------------- Oracle

// Oracle is the hypothetical ideal (paper §4.2): it is asleep except
// exactly when events of interest occur, waking early enough to be usable
// at each event's start. Its detections are the ground truth itself.
type Oracle struct{}

// Name implements Strategy.
func (Oracle) Name() string { return "oracle" }

// Run implements Strategy.
func (Oracle) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	profile := power.Nexus4()
	ph := power.NewPhone(profile)
	c := &clock{ph: ph, rate: tr.RateHz, n: tr.Len()}

	truth := tr.EventsLabeled(app.Label)
	gap := int(app.OracleMergeGapSec * tr.RateHz)
	spans := mergeTruthSpans(truth, gap)

	for _, sp := range spans {
		start := float64(sp.Start)/tr.RateHz - profile.TransitionSeconds
		if start < c.t {
			start = c.t
		}
		end := float64(sp.End) / tr.RateHz
		if start > c.t {
			c.advance(start - c.t)
		}
		ph.RequestWake()
		if end > c.t {
			c.advance(end - c.t)
		}
		ph.RequestSleep()
	}
	if rest := c.endSec() - c.t; rest > 0 {
		c.advance(rest)
	}

	res := finish("oracle", tr, app, ph, 0, nil)
	// The oracle detects by definition: perfect recall and precision.
	res.Detections = truth
	res.Truth = truth
	res.Recall, res.Precision = 1, 1
	res.TP, res.FP = len(truth), 0
	return res, nil
}

// mergeTruthSpans coalesces ground-truth events separated by fewer than
// gap samples into single awake spans (steps in one walking bout wake the
// oracle once, not per step).
func mergeTruthSpans(truth []sensor.Event, gap int) []Interval {
	var out []Interval
	for _, e := range truth {
		if n := len(out); n > 0 && e.Start-out[n-1].End <= gap {
			if e.End > out[n-1].End {
				out[n-1].End = e.End
			}
			continue
		}
		out = append(out, Interval{e.Start, e.End})
	}
	return out
}

// ----------------------------------------------------------- Duty Cycling

// DutyCycling wakes at fixed intervals, collects data for 4 seconds, and
// stays awake in 4-second extensions while the application keeps detecting
// events; otherwise it sleeps for SleepSec (paper §4.2).
type DutyCycling struct {
	SleepSec float64
}

// Name implements Strategy.
func (d DutyCycling) Name() string { return sleepName("duty-cycle-", d.SleepSec) }

// sleepName renders prefix, sec as %.0f renders it, and an s, in one
// allocation.
func sleepName(prefix string, sec float64) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendFloat(b, sec, 'f', 0, 64)
	return string(append(b, 's'))
}

// Run implements Strategy.
func (d DutyCycling) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	if d.SleepSec <= 0 {
		return nil, fmt.Errorf("sim: duty cycling needs a positive sleep interval")
	}
	ph := power.NewPhone(power.Nexus4())
	var s dutySchedule
	s.run(&clock{ph: ph, rate: tr.RateHz, n: tr.Len()}, d.SleepSec, tr, app,
		func(_, start, end int) Interval { return Interval{start, end} })
	res := finish(d.Name(), tr, app, ph, 0, s.intervals)
	res.Deliveries = s.deliveries
	return res, nil
}

// dutySchedule is the schedule duty cycling and batching share: wake,
// deliver data after every dutyAwakeSec chunk for as long as the
// application detects something in it, then sleep, until the trace ends.
// It records what reached the application.
type dutySchedule struct {
	intervals  []Interval
	deliveries []Delivery
	delivered  int // end of the last delivery
}

// run drives c's phone through the schedule with sleepSec between
// wake-ups. After each awake chunk, samples [start, end), it delivers
// pick(s.delivered, start, end) and keeps the phone awake for another
// chunk while the application detects something in that interval.
func (s *dutySchedule) run(c *clock, sleepSec float64, tr *sensor.Trace, app *apps.App,
	pick func(delivered, start, end int) Interval) {
	end := c.endSec()
	transition := power.Nexus4().TransitionSeconds
	for c.t < end {
		c.ph.RequestWake()
		c.advance(math.Min(transition, end-c.t))
		for c.t < end {
			chunkStart := c.t
			c.advance(math.Min(dutyAwakeSec, end-c.t))
			iv := pick(s.delivered, c.sampleAt(chunkStart), c.sampleAt(c.t))
			s.deliver(iv)
			if len(app.Detector.Detect(tr, iv.Start, iv.End)) == 0 {
				break
			}
		}
		if c.t >= end {
			break
		}
		c.ph.RequestSleep()
		c.advance(math.Min(transition, end-c.t))
		c.advance(math.Min(sleepSec, end-c.t))
	}
}

// deliver records that iv reached the application at its end.
func (s *dutySchedule) deliver(iv Interval) {
	s.intervals = append(s.intervals, iv)
	s.deliveries = append(s.deliveries, Delivery{Start: iv.Start, End: iv.End, At: iv.End})
	s.delivered = iv.End
}

// --------------------------------------------------------------- Batching

// Batching follows the duty-cycling schedule, but sensor data is cached in
// hub memory while the phone sleeps and the whole batch is delivered on
// wake-up: recall is perfect at the cost of detection latency (paper §4.2,
// §5.4). The power model includes the MSP430 doing the caching (§4.3).
type Batching struct {
	SleepSec float64
}

// Name implements Strategy.
func (b Batching) Name() string { return sleepName("batching-", b.SleepSec) }

// Run implements Strategy.
func (b Batching) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	if b.SleepSec <= 0 {
		return nil, fmt.Errorf("sim: batching needs a positive sleep interval")
	}
	ph := power.NewPhone(power.Nexus4())
	var s dutySchedule
	s.run(&clock{ph: ph, rate: tr.RateHz, n: tr.Len()}, b.SleepSec, tr, app,
		func(delivered, _, end int) Interval { return Interval{delivered, end} })
	// Whatever remains in the cache is delivered at trace end.
	if s.delivered < tr.Len() {
		s.deliver(Interval{s.delivered, tr.Len()})
	}
	res := finish(b.Name(), tr, app, ph, hub.MSP430().ActivePowerMW, s.intervals)
	res.Deliveries = s.deliveries
	return res, nil
}

// ---------------------------------------------------- Predefined Activity

// PAKind selects which hardwired detector a PredefinedActivity hub runs.
type PAKind int

const (
	// SignificantMotion models Android's significant-motion detector: a
	// short-window standard deviation of the acceleration magnitude.
	SignificantMotion PAKind = iota
	// SignificantSound wakes on short-window audio variance (intensity).
	SignificantSound
)

// PredefinedActivity models the manufacturer-hardwired detector
// configuration (paper §4.2): the hub wakes the phone on significant
// motion or sound, regardless of what the application actually wants. The
// threshold is calibrated per §5.3 to the lowest power that retains 100%
// recall. The MSP430 runs the detector and buffers recent raw data.
type PredefinedActivity struct {
	Kind      PAKind
	Threshold float64
}

// Name implements Strategy.
func (p PredefinedActivity) Name() string { return "predefined-activity" }

// Run implements Strategy. It is GradePA's one-threshold case: the trace
// graded against {Threshold}, fired wherever it passes.
func (p PredefinedActivity) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	rp := levelRunLists.Get().(*[]levelRun)
	g := PAGrades{runs: (*rp)[:0]}
	err := g.grade(p.Kind, tr, []float64{p.Threshold})
	var res *Result
	if err == nil {
		res = g.Run(app, 0)
	}
	*rp = g.runs[:0]
	levelRunLists.Put(rp)
	return res, err
}

// levelRunLists holds the level runs PredefinedActivity.Run and GradePA
// grade into between calls, which the simulation workers make
// concurrently.
var levelRunLists = sync.Pool{New: func() any { return new([]levelRun) }}

// PAGrades is a trace's predefined-activity feature graded once against an
// ascending grid of thresholds: for each sample, its level, how many of
// the grid's thresholds the window ending there passes. A calibration scan
// reads each grid step's firings from it (Run) instead of streaming the
// feature again per step and app. Levels change rarely, so they are kept
// as runs.
type PAGrades struct {
	tr   *sensor.Trace
	n    int        // trace length in samples
	runs []levelRun // level changes in sample order; level 0 before the first
}

// levelRun is a run of samples at one level, from start up to the next
// run's start or the trace's end.
type levelRun struct {
	start int32
	level uint8
}

// GradePA grades tr's kind of significance against grid, ascending
// thresholds (at most 255 of them). The runs are graded into pooled
// scratch and kept at their exact length.
func GradePA(kind PAKind, tr *sensor.Trace, grid []float64) (*PAGrades, error) {
	rp := levelRunLists.Get().(*[]levelRun)
	g := PAGrades{runs: (*rp)[:0]}
	err := g.grade(kind, tr, grid)
	*rp = g.runs[:0]
	g.runs = slices.Clone(g.runs)
	levelRunLists.Put(rp)
	if err != nil {
		return nil, err
	}
	return &g, nil
}

// grade fills g, appending to g.runs. It is the detector's one streaming
// pass: the window's running sum and sum of squares, O(1) work per sample,
// give its variance (sound) or standard deviation (motion), and a sample's
// level is how many thresholds that feature is at or above. The level at
// the sample before is checked first, since levels change rarely.
func (g *PAGrades) grade(kind PAKind, tr *sensor.Trace, grid []float64) error {
	n := tr.Len() // hoisted: Len ranges over the channel map
	if n > math.MaxInt32 || len(grid) > math.MaxUint8 {
		return fmt.Errorf("sim: grading %d samples against %d thresholds exceeds the level runs' range", n, len(grid))
	}
	values, win, err := significanceInput(kind, tr)
	if err != nil {
		return err
	}
	g.tr, g.n = tr, n
	nf := float64(win)
	var sum, sumSq float64
	level := 0
	for i, v := range values[:n] {
		sum += v
		sumSq += v * v
		if i >= win {
			old := values[i-win]
			sum -= old
			sumSq -= old * old
		}
		if i+1 < win {
			continue
		}
		mean := sum / nf
		variance := sumSq/nf - mean*mean
		if variance < 0 {
			variance = 0
		}
		x := variance
		if kind == SignificantMotion {
			x = math.Sqrt(variance)
		}
		if (level == 0 || x >= grid[level-1]) && (level == len(grid) || !(x >= grid[level])) {
			continue
		}
		l := 0
		for l < len(grid) && x >= grid[l] {
			l++
		}
		if l != level {
			g.runs = append(g.runs, levelRun{start: int32(i), level: uint8(l)})
			level = l
		}
	}
	return nil
}

// AppendFires appends to f the samples of [base, end) whose level exceeds
// step, in order: where the feature reaches the grid's threshold at step.
func (g *PAGrades) AppendFires(f []int, step, base, end int) []int {
	runs := g.runs
	// j is the run holding base, -1 before the first.
	j := sort.Search(len(runs), func(k int) bool { return int(runs[k].start) > base }) - 1
	for i := base; i < end; j++ {
		next := end
		if j+1 < len(runs) {
			next = min(end, int(runs[j+1].start))
		}
		if j >= 0 && int(runs[j].level) > step {
			for ; i < next; i++ {
				f = append(f, i)
			}
		}
		i = next
	}
	return f
}

// Run is PredefinedActivity{Kind: kind, Threshold: grid[step]}.Run over
// the graded trace, bit for bit.
func (g *PAGrades) Run(app *apps.App, step int) *Result {
	tr, n := g.tr, g.n
	ph := power.NewPhone(power.Nexus4())
	w := newWakeWindow(ph, tr.RateHz, int(app.PreBufferSec*tr.RateHz), int(paHoldSec*tr.RateHz))
	replayHub(w, n, func(f fireList, base, end int) fireList {
		return g.AppendFires(f, step, base, end)
	}, nil, nil)
	return finish(PredefinedActivity{}.Name(), tr, app, ph, hub.MSP430().ActivePowerMW, w.close(n))
}

// significanceInput returns what kind's detector windows, the
// acceleration magnitude (motion) or the raw audio (sound), and its window
// length in samples.
func significanceInput(kind PAKind, tr *sensor.Trace) ([]float64, int, error) {
	switch kind {
	case SignificantMotion:
		axes, err := traceChannels(tr, []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ}, "significant motion")
		if err != nil {
			return nil, 0, err
		}
		x, y, z := axes[0], axes[1], axes[2]
		mags := make([]float64, len(x))
		for i := range mags {
			mags[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
		}
		return mags, int(0.5 * tr.RateHz), nil
	case SignificantSound:
		mic, err := traceChannels(tr, []core.SensorChannel{core.Mic}, "significant sound")
		if err != nil {
			return nil, 0, err
		}
		return mic[0], 1024, nil
	}
	return nil, 0, fmt.Errorf("sim: unknown predefined activity kind %d", kind)
}

// -------------------------------------------------------------- Sidewinder

// Sidewinder runs the application's wake-up condition on the sensor hub:
// the pipeline is validated against the platform catalog, placed on the
// cheapest feasible device, and interpreted over every sample while the
// phone sleeps. A value reaching OUT wakes the phone, which receives the
// hub's buffered raw data (paper §2-3).
type Sidewinder struct {
	// Devices defaults to hub.Devices().
	Devices []hub.Device
	// Precision selects the interpreter's numeric substrate (default
	// float64; Q15 models the FPU-less MCU hub on fixed-point arithmetic).
	Precision interp.Precision

	// Telemetry, when enabled, attributes the run's energy to the ledger,
	// profiles the hub interpreter per stage, and traces wake events and
	// phone state transitions. The zero Set changes nothing.
	Telemetry telemetry.Set
}

// Name implements Strategy.
func (Sidewinder) Name() string { return "sidewinder" }

// placeWake validates the app's wake condition against the default
// catalog and places it on the cheapest feasible device (devices defaults
// to hub.Devices()).
func placeWake(app *apps.App, devices []hub.Device) (*core.Catalog, *core.Plan, hub.Device, error) {
	cat := core.DefaultCatalog()
	if devices == nil {
		devices = hub.Devices()
	}
	plan, err := app.Wake.Validate(cat)
	if err != nil {
		return nil, nil, hub.Device{}, fmt.Errorf("sim: validating %s wake condition: %w", app.Name, err)
	}
	dev, err := hub.SelectDevice(devices, plan)
	if err != nil {
		return nil, nil, hub.Device{}, fmt.Errorf("sim: placing %s wake condition: %w", app.Name, err)
	}
	return cat, plan, dev, nil
}

// Run implements Strategy.
func (s Sidewinder) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	cat, plan, dev, err := placeWake(app, s.Devices)
	if err != nil {
		return nil, err
	}
	// The hub executes the DAG-compiled form of the condition: intra-app
	// duplicate subgraphs (e.g. two branches windowing the microphone the
	// same way) run once. Placement above is sized on the unoptimized
	// plan — the conservative bound a hub must satisfy even with the
	// optimizer ablated. The compiled plan produces bit-identical wakes
	// (TestDAGLinearEquivalence).
	exec, _, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
	if err != nil {
		return nil, fmt.Errorf("sim: compiling %s wake condition: %w", app.Name, err)
	}
	m, err := interp.NewPrecision(exec, s.Precision)
	if err != nil {
		return nil, err
	}
	data, err := traceChannels(tr, exec.Channels, app.Name)
	if err != nil {
		return nil, err
	}

	n := tr.Len()
	ph := power.NewPhone(power.Nexus4())
	w := newWakeWindow(ph, tr.RateHz, int(app.PreBufferSec*tr.RateHz), int(swIdleHoldSec*tr.RateHz))
	hubStream := w.c.trace(s.Telemetry)
	var profile *telemetry.InterpProfile
	if s.Telemetry.Enabled() {
		profile = telemetry.NewInterpProfile()
		m.SetProfile(profile)
	}

	visit := func(i int, hit bool) {
		if hit {
			hubStream.Instant1("wake.sent", "hub", "sample", float64(i))
			w.fire(i)
		}
	}
	replayHub(w, n, func(f fireList, base, end int) fireList {
		m.Run(exec.Channels, data, base, end, f.add)
		return f.set()
	}, visit, nil)

	if s.Telemetry.Enabled() {
		led := s.Telemetry.Ledger
		depositPhoneEnergy(led, ph)
		profile.DepositHub(led, dev.ActivePowerMW, ph.TotalSeconds(), dev.Cycles)
		profile.EmitStageSpans(hubStream, dev.Cycles, dev.ClockHz)
	}

	res := finish(s.Name(), tr, app, ph, dev.ActivePowerMW, w.close(n))
	res.Device = dev.Name
	res.HubUtilization = dev.Utilization(plan)
	return res, nil
}
