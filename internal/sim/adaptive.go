package sim

import (
	"fmt"
	"math"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
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

	// Telemetry and TraceLabel behave exactly as on Sidewinder.
	Telemetry  telemetry.Set
	TraceLabel string
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

// adaptiveProgram is one compiled, admitted hub configuration.
type adaptiveProgram struct {
	feed    *hubFeed
	powerMW float64
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
		feed, err := newHubFeed(m, tr, exec.Channels, app.Name)
		if err != nil {
			return nil, err
		}
		return &adaptiveProgram{feed: feed, powerMW: dev.LoadPowerMW(f, i)}, nil
	}

	cur, err := build(engine.Knobs())
	if err != nil {
		return nil, err
	}
	engine.TakeDirty() // the pushed configuration is not an adaptation

	n := tr.Len()
	ph := power.NewPhone(power.Nexus4())
	dt := 1 / tr.RateHz
	hold := int(swIdleHoldSec * tr.RateHz)
	tol := int(app.MatchTolSec * tr.RateHz)
	tracker := newTruthTracker(tr.EventsLabeled(app.Label), tol)
	w := newWakeWindow(ph, tr.RateHz, int(app.PreBufferSec*tr.RateHz), hold)
	hubStream := w.c.trace(s.Telemetry, s.TraceLabel)

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
	fired := make([]bool, simBlock)
	for blockStart := 0; blockStart < n; blockStart += simBlock {
		if pending != nil {
			cur, pending = pending, nil
		}
		f := fired[:min(simBlock, n-blockStart)]
		cur.feed.fire(f, blockStart)
		hubMJ += cur.powerMW * float64(len(f)) * dt
		staticMJ += staticMW * float64(len(f)) * dt
		w.replay(f, blockStart, visit, tracker.nextExpiry)
	}
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
		led := s.Telemetry.LedgerSink()
		depositPhoneEnergy(led, ph)
		led.AddEnergyMJ(telemetry.HubDevice, hubMJ)
		led.AddEnergyMJ(telemetry.AdaptSavings, staticMJ-hubMJ)
		profile.DepositCycles(led, dev.Cycles)
		emitStageSpans(hubStream, profile, dev)
	}

	hubMW := 0.0
	if totalSec > 0 {
		hubMW = hubMJ / totalSec
	}
	res := finish(s.Name(), tr, app, ph, hubMW, intervals, nil)
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
