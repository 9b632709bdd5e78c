package sim

import (
	"fmt"
	"math"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// AdaptStats summarizes what the policy engine did over one run and what
// it was worth. StaticMJ is the counterfactual hub energy had the pushed
// configuration run unchanged, under the same load-proportional power
// model, so AdaptedMJ + SavingsMJ == StaticMJ exactly (the conservation
// invariant the property tests pin at 1e-9).
type AdaptStats struct {
	adapt.Stats
	// FinalKnobs is the configuration resident when the trace ended.
	FinalKnobs adapt.Knobs
	// Adoptions counts hub program rebuilds actually performed (a subset
	// of Stats.Changes: proposals the re-admission check vetoed, and knob
	// changes arriving faster than block boundaries, coalesce).
	Adoptions int
	// StaticMJ / AdaptedMJ / SavingsMJ decompose hub energy.
	StaticMJ, AdaptedMJ, SavingsMJ float64
	// MissedRate is the observed missed-wake fraction.
	MissedRate float64
}

// AdaptiveSidewinder is Sidewinder with the feedback loop closed: the
// application layer's per-wake verdicts (true wake / false wake) and
// missed-event reports feed the adapt.Engine, whose bounded
// re-parameterizations — threshold strictness, Q15 demotion, decimation
// with window stretch — are re-admitted against the hub's cycle/RAM
// budget and swapped in at block boundaries. Hub energy is billed
// load-proportionally (hub.Device.LoadPowerMW), so shedding work shows
// up as measured savings; the static counterfactual under the same model
// is tracked alongside and the difference deposited to the ledger's
// adapt.savings component.
type AdaptiveSidewinder struct {
	// Config bounds the policy; the zero value takes adapt.DefaultConfig.
	Config adapt.Config
	// Frozen disables adaptation: the engine observes nothing and the
	// pushed configuration runs unchanged. This is the static control arm
	// of the experiment — identical power model, identical wake semantics,
	// zero savings by construction.
	Frozen bool

	// Telemetry behaves exactly as on Sidewinder.
	Telemetry telemetry.Set

	// passes, set by AdaptiveArms, shares the pushed program's hub pass
	// between the arms it returns.
	passes *onceMemo[basePassKey, basePass]
}

// AdaptiveArms returns the experiment's static control arm and adaptive
// arm under cfg. The hub decides the wakes and the phone replays them
// (paper §3, §4.2), so both arms run the same hub pass over a trace until
// the adaptive arm first adopts a new program, and at short traces it may
// never adopt one. The two arms therefore share one pass of the pushed
// program per trace: the first arm to reach a trace runs it, and the other
// copies its firings chunk by chunk. A run with telemetry enabled runs its
// own pass, so its interpreter profile and stage spans stay its own.
// Nothing is kept beyond the two arms.
func AdaptiveArms(cfg adapt.Config) (static, adaptive AdaptiveSidewinder) {
	passes := newOnceMemo[basePassKey, basePass]()
	return AdaptiveSidewinder{Config: cfg, Frozen: true, passes: passes},
		AdaptiveSidewinder{Config: cfg, passes: passes}
}

// basePassKey identifies a pass of the pushed program: the trace, and the
// program's IR text and precision, which fix its compiled machine and the
// channels it reads.
type basePassKey struct {
	tr   *sensor.Trace
	text string
	prec interp.Precision
}

// basePass is a program's whole-trace fire list, run on one fresh machine
// a simBlock chunk at a time as replayHub runs it: chunk c's sorted,
// duplicate-free firings are fires[offs[c]:offs[c+1]].
type basePass struct {
	fires fireList
	offs  []int
}

// chunk returns the firings of the chunk starting at sample base. The
// slice belongs to the pass; callers copy it.
func (p basePass) chunk(base int) fireList {
	c := base / simBlock
	return p.fires[p.offs[c]:p.offs[c+1]]
}

// Name implements Strategy.
func (s AdaptiveSidewinder) Name() string {
	if s.Frozen {
		return "sidewinder-static"
	}
	return "sidewinder-adaptive"
}

// truthTracker scores wakes against ground truth online, in trace order:
// each phone wake-up is classified true/false by window overlap, and a
// truth event whose tolerance window expires with neither a wake nor an
// open awake interval is a miss. All state advances monotonically with
// the sample index, so the verdict sequence is a pure function of the
// trace — the determinism the worker-invariance tests rely on.
type truthTracker struct {
	truth []sensor.Event
	woken []bool
	order []int // event indices sorted by deadline (End+tol)
	tol   int
	next  int // first order entry whose deadline has not expired
}

func newTruthTracker(truth []sensor.Event, tol int) *truthTracker {
	t := &truthTracker{
		truth: truth,
		woken: make([]bool, len(truth)),
		order: make([]int, len(truth)),
		tol:   tol,
	}
	for i := range t.order {
		t.order[i] = i
	}
	// Insertion sort by End: truth events arrive sorted by Start and
	// rarely overlap, so this is near-linear and avoids importing sort.
	for i := 1; i < len(t.order); i++ {
		for j := i; j > 0 && truth[t.order[j]].End < truth[t.order[j-1]].End; j-- {
			t.order[j], t.order[j-1] = t.order[j-1], t.order[j]
		}
	}
	return t
}

// markFired records that the hub condition fired at sample i and reports
// whether the firing overlapped any truth event's tolerance window.
func (t *truthTracker) markFired(i int) bool {
	hit := false
	for j, e := range t.truth {
		if i >= e.Start-t.tol && i <= e.End+t.tol {
			t.woken[j] = true
			hit = true
		}
	}
	return hit
}

// expire returns how many truth events were missed by sample i: their
// tolerance window closed with no firing, while the phone was asleep
// (an open awake interval means the application had the data anyway).
func (t *truthTracker) expire(i int, phoneOpen bool) int {
	missed := 0
	for t.next < len(t.order) {
		ei := t.order[t.next]
		if t.truth[ei].End+t.tol >= i {
			break
		}
		if !t.woken[ei] && !phoneOpen {
			missed++
		}
		t.next++
	}
	return missed
}

// nextExpiry returns the first sample at which expire can report a miss:
// one past the earliest unexpired deadline, or never once all expired.
func (t *truthTracker) nextExpiry() int {
	if t.next == len(t.order) {
		return math.MaxInt
	}
	return t.truth[t.order[t.next]].End + t.tol + 1
}

// adaptiveProgram is one compiled, admitted hub configuration: its plan,
// its interpreter and the trace channels it reads.
type adaptiveProgram struct {
	plan    *core.Plan
	m       *interp.Machine
	chs     []core.SensorChannel
	data    [][]float64
	powerMW float64
}

// pass runs the program's machine over the trace's n samples, chunk by
// chunk as replayHub does, and returns its fire list.
func (p *adaptiveProgram) pass(n int) basePass {
	var bp basePass
	for base := 0; base < n; base += simBlock {
		start := len(bp.fires)
		p.m.Run(p.chs, p.data, base, min(base+simBlock, n), bp.fires.add)
		bp.fires = bp.fires[:start+len(bp.fires[start:].set())]
		bp.offs = append(bp.offs, start)
	}
	bp.offs = append(bp.offs, len(bp.fires))
	return bp
}

// Run implements Strategy.
func (s AdaptiveSidewinder) Run(tr *sensor.Trace, app *apps.App) (*Result, error) {
	cfg := s.Config
	if cfg == (adapt.Config{}) {
		cfg = adapt.DefaultConfig()
	}
	cat, base, dev, err := placeWake(app, nil)
	if err != nil {
		return nil, err
	}
	// The static counterfactual: the pushed program at the developer's
	// precision, billed load-proportionally. Adaptation is only allowed
	// to move demand DOWN from here, so savings are non-negative and
	// AdaptedMJ + SavingsMJ == StaticMJ is exact.
	baseF, baseI, _ := adapt.Demand(base, interp.Float64)
	baseCycles := dev.Cycles(baseF, baseI)
	staticMW := dev.LoadPowerMW(baseF, baseI)

	engine := adapt.NewEngine(cfg)

	var profile *telemetry.InterpProfile
	if s.Telemetry.Enabled() {
		profile = telemetry.NewInterpProfile()
	}

	build := func(k adapt.Knobs) (*adaptiveProgram, error) {
		plan, err := adapt.Reparameterize(cat, base, k)
		if err != nil {
			return nil, err
		}
		f, i, mem := adapt.Demand(plan, k.Precision)
		if !dev.Fits(f, i, mem) || dev.Cycles(f, i) > baseCycles {
			return nil, fmt.Errorf("sim: knobs %+v exceed the admitted demand", k)
		}
		exec, _, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			return nil, err
		}
		m, err := interp.NewPrecision(exec, k.Precision)
		if err != nil {
			return nil, err
		}
		if profile != nil {
			m.SetProfile(profile)
		}
		data, err := traceChannels(tr, exec.Channels, app.Name)
		if err != nil {
			return nil, err
		}
		return &adaptiveProgram{plan: plan, m: m, chs: exec.Channels, data: data, powerMW: dev.LoadPowerMW(f, i)}, nil
	}

	pushedKnobs := engine.Knobs()
	cur, err := build(pushedKnobs)
	if err != nil {
		return nil, err
	}
	engine.TakeDirty() // the pushed configuration is not an adaptation

	n := tr.Len()
	// While the pushed program is resident, its firings come from the pass
	// the arms share, when they share one. A program adopted later starts
	// from fresh state and runs its own machine, even at the pushed knobs.
	pushed := cur
	var shared *basePass
	if s.passes != nil && !s.Telemetry.Enabled() {
		key := basePassKey{tr: tr, text: ir.CompileToText(cur.plan), prec: pushedKnobs.Precision}
		bp, err := s.passes.get(key, func() (basePass, error) { return cur.pass(n), nil })
		if err != nil {
			return nil, err
		}
		shared = &bp
	}
	ph := power.NewPhone(power.Nexus4())
	dt := 1 / tr.RateHz
	hold := int(swIdleHoldSec * tr.RateHz)
	tol := int(app.MatchTolSec * tr.RateHz)
	tracker := newTruthTracker(tr.EventsLabeled(app.Label), tol)
	w := newWakeWindow(ph, tr.RateHz, int(app.PreBufferSec*tr.RateHz), hold)
	hubStream := w.c.trace(s.Telemetry)

	// pending holds a re-admitted program awaiting the next block boundary;
	// swapping only there keeps each block's wake offsets internally
	// consistent and models the hub finishing its buffer before rebuilding.
	var pending *adaptiveProgram
	adoptions := 0

	// observe feeds one verdict and, if the proposal moved, re-admits it.
	// A vetoed rung re-proposes its fallback immediately (Veto marks the
	// engine dirty), so the loop is bounded by the ladder length.
	observe := func(sig adapt.Signal) {
		if s.Frozen {
			return
		}
		engine.Observe(sig)
		for engine.TakeDirty() {
			p, err := build(engine.Knobs())
			if err != nil {
				engine.Veto()
				continue
			}
			pending = p
			adoptions++
			hubStream.Instant2("adapt.adopt", "hub",
				"rung", float64(engine.Stats().Rung), "mW", p.powerMW)
			return
		}
		pending = nil // proposal settled back to the resident program
	}

	hubMJ, staticMJ := 0.0, 0.0
	frozenTally := adapt.Stats{}
	// lastVerdict rate-limits awake-phase re-confirmations: a wake-up
	// transition always yields a verdict, and while the phone stays awake
	// through a long event the application re-confirms at most once per
	// hold window — without this, continuous conditions (music playing)
	// would produce one verdict per run and starve the policy.
	lastVerdict := -(hold + 1)

	visit := func(i int, hit bool) {
		if hit {
			trueWake := tracker.markFired(i)
			hubStream.Instant1("wake.sent", "hub", "sample", float64(i))
			if w.fire(i) || i-lastVerdict > hold {
				lastVerdict = i
				if trueWake {
					frozenTally.TrueWakes++
					observe(adapt.TrueWake)
				} else {
					frozenTally.FalseWakes++
					observe(adapt.FalseWake)
				}
			}
		}
		for m := tracker.expire(i, w.open()); m > 0; m-- {
			frozenTally.MissedWakes++
			observe(adapt.MissedWake)
		}
	}
	replayHub(w, n, func(f fireList, base, end int) fireList {
		if pending != nil {
			cur, pending = pending, nil
		}
		if shared != nil && cur == pushed {
			// Copy: replayHub reuses f's backing array across chunks.
			f = append(f, shared.chunk(base)...)
		} else {
			cur.m.Run(cur.chs, cur.data, base, end, f.add)
			f = f.set()
		}
		hubMJ += cur.powerMW * float64(end-base) * dt
		staticMJ += staticMW * float64(end-base) * dt
		return f
	}, visit, tracker.nextExpiry)
	intervals := w.close(n)
	// Score (but no longer act on) events whose window ran off the trace.
	frozenTally.MissedWakes += tracker.expire(n+tol+1, w.open())

	totalSec := ph.TotalSeconds()
	stats := engine.Stats()
	if s.Frozen {
		stats = frozenTally
	}
	astats := &AdaptStats{
		Stats:      stats,
		FinalKnobs: engine.Knobs(),
		Adoptions:  adoptions,
		StaticMJ:   staticMJ,
		AdaptedMJ:  hubMJ,
		SavingsMJ:  staticMJ - hubMJ,
		MissedRate: engine.MissedRate(),
	}
	if s.Frozen {
		// The frozen arm never billed below staticMW, so savings are zero
		// up to the same accumulation the adaptive arm performs.
		astats.MissedRate = missedRateOf(frozenTally)
	}

	if s.Telemetry.Enabled() {
		led := s.Telemetry.Ledger
		depositPhoneEnergy(led, ph)
		led.AddEnergyMJ(telemetry.HubDevice, hubMJ)
		led.AddEnergyMJ(telemetry.AdaptSavings, staticMJ-hubMJ)
		profile.DepositCycles(led, dev.Cycles)
		profile.EmitStageSpans(hubStream, dev.Cycles, dev.ClockHz)
	}

	hubMW := 0.0
	if totalSec > 0 {
		hubMW = hubMJ / totalSec
	}
	res := finish(s.Name(), tr, app, ph, hubMW, intervals)
	res.Device = dev.Name
	res.HubUtilization = dev.Utilization(base)
	res.Adapt = astats
	return res, nil
}

// missedRateOf computes the missed fraction from raw tallies.
func missedRateOf(s adapt.Stats) float64 {
	total := s.MissedWakes + s.TrueWakes
	if total == 0 {
		return 0
	}
	return float64(s.MissedWakes) / float64(total)
}
