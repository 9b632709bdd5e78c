package eval

import (
	"fmt"
	"math"

	"sidewinder/internal/apps"
	"sidewinder/internal/interp"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// paCalibration is what a calibration scan simulated, keyed by truthKey:
// the Always-Awake ceilings and the predefined-activity runs at the chosen
// threshold, both rescored against truths where the scan was given them.
// Experiments read these back as their own cells instead of re-running
// them (add).
type paCalibration struct {
	pa           sim.PredefinedActivity
	aaRes, paRes map[string]*sim.Result
}

// calibratePA finds the predefined-activity threshold that minimizes power
// while keeping 100% detection recall for every (trace, app) pair, exactly
// the deliberately over-fit procedure of paper §5.3 ("we explored the
// parameter space to determine the best thresholds ... values that
// minimize power consumption, while maintaining 100% detection recall"),
// and returns what it ran.
//
// Power decreases monotonically as the threshold rises (fewer wake-ups),
// so the best threshold is the largest one that still recalls everything:
// a coarse descending scan over a geometric grid suffices and stays
// deterministic.
//
// aa, when non-nil, holds Always-Awake results for every (trace, app) pair
// that already ran (Figure 7 needs them first, for its pseudo ground
// truth); otherwise the ceilings run here.
func calibratePA(workers int, kind sim.PAKind, traces []*sensor.Trace, appList []*apps.App, truths map[string][]sensor.Event, aa map[string]*sim.Result) (*paCalibration, error) {
	// "100% recall" means recalling everything the main-CPU classifier
	// can detect at all: the Always-Awake run is the per-(trace, app)
	// ceiling no wake-up mechanism can exceed.
	pairs := calibrationPairs(traces, appList)
	if aa == nil {
		var err error
		if aa, err = alwaysAwake(workers, pairs); err != nil {
			return nil, err
		}
	}
	for _, p := range pairs {
		if truth, ok := truths[truthKey(p.tr, p.app)]; ok {
			aa[truthKey(p.tr, p.app)].RescoreAgainst(truth, int(p.app.MatchTolSec*p.tr.RateHz))
		}
	}

	grid := motionGrid
	if kind == sim.SignificantSound {
		grid = soundGrid
	}
	// The feature is graded against the whole grid once per trace, so a
	// step only replays the phone over the samples whose level exceeds it.
	// The grades live for this scan only.
	graded, err := parallel.Map(workers, len(traces), func(i int) (*sim.PAGrades, error) {
		return sim.GradePA(kind, traces[i], grid)
	})
	if err != nil {
		return nil, err
	}
	grades := make(map[*sensor.Trace]*sim.PAGrades, len(traces))
	for i, tr := range traces {
		grades[tr] = graded[i]
	}
	// Each step first checks the pair that fell short at the step before:
	// it is the likeliest to fall short again, and the verdict does not
	// depend on the order.
	binding := 0
	scan := paScan{results: make([]*sim.Result, len(pairs)), short: make([]bool, len(pairs))}
	for i := len(grid) - 1; i >= 0; i-- {
		ran, short := scan.recallsAll(workers, grades, i, pairs, binding, truths, aa)
		if ran != nil {
			pa := sim.PredefinedActivity{Kind: kind, Threshold: grid[i]}
			return &paCalibration{pa: pa, aaRes: aa, paRes: ran}, nil
		}
		binding = short
	}
	return nil, fmt.Errorf("eval: no predefined-activity threshold achieves full recall")
}

// alwaysAwake runs the Always-Awake baseline on every pair through the
// pool, keyed by truthKey.
func alwaysAwake(workers int, pairs []calibrationPair) (map[string]*sim.Result, error) {
	var b runBatch
	cells := make([]cellRange, len(pairs))
	for i, p := range pairs {
		cells[i] = b.addOne(sim.AlwaysAwake{}, p.tr, p.app)
	}
	b.run(workers, telemetry.Set{}, interp.Float64)
	out := make(map[string]*sim.Result, len(pairs))
	for i, p := range pairs {
		res, err := cells[i].first()
		if err != nil {
			return nil, err
		}
		out[truthKey(p.tr, p.app)] = res
	}
	return out, nil
}

// add enqueues s over traces for app on b, reusing what the calibration
// ran when s is Always-Awake or the calibrated predefined activity: those
// cells are bit-identical to a fresh run, rescoring included, because
// RescoreAgainst is a pure function of the truth it is given.
func (c *paCalibration) add(b *runBatch, s sim.Strategy, traces []*sensor.Trace, app *apps.App) cellRange {
	var ran map[string]*sim.Result
	switch st := s.(type) {
	case sim.AlwaysAwake:
		ran = c.aaRes
	case sim.PredefinedActivity:
		if st == c.pa {
			ran = c.paRes
		}
	}
	results := make([]*sim.Result, 0, len(traces))
	for _, tr := range traces {
		res, ok := ran[truthKey(tr, app)]
		if !ok {
			return b.add(s, traces, app)
		}
		results = append(results, res)
	}
	return b.reuse(results)
}

// calibrationPair is one (trace, app) recall measurement.
type calibrationPair struct {
	tr  *sensor.Trace
	app *apps.App
}

// calibrationPairs flattens the (trace, app) matrix in deterministic order.
func calibrationPairs(traces []*sensor.Trace, appList []*apps.App) []calibrationPair {
	out := make([]calibrationPair, 0, len(traces)*len(appList))
	for _, tr := range traces {
		for _, app := range appList {
			out = append(out, calibrationPair{tr: tr, app: app})
		}
	}
	return out
}

// Geometric threshold grids for the two hardwired detectors. Units:
// motion is the std-dev of acceleration magnitude (m/s²); sound is the
// audio amplitude variance.
var (
	motionGrid = geometric(0.02, 1.6, 24)
	soundGrid  = geometric(0.0002, 0.08, 24)
)

// geometric returns n points from lo to hi in geometric progression.
func geometric(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

// paScan is a calibration scan's per-pair scratch, reused from step to
// step: each pair's result and whether it fell short.
type paScan struct {
	results []*sim.Result
	short   []bool
}

// recallsAll runs the predefined activity at grid step step on every
// (trace, app) pair, read from the pair's trace grades, starting with
// pairs[first], and returns the results keyed by truthKey when every pair
// recalls as much as its Always-Awake ceiling in aa; otherwise it returns
// nil and the index of the pair that fell short first in that order. For
// traces listed in truths, recall is measured against that baseline
// instead of trace labels (human traces, §5.5). Pairs fan through the pool
// and stop early once any pair falls short; parallel.All runs the same
// pairs at every schedule, so the returned index, and with it the next
// threshold's order, is deterministic. When every pair passes, every pair
// ran.
func (s *paScan) recallsAll(workers int, grades map[*sensor.Trace]*sim.PAGrades, step int, pairs []calibrationPair, first int, truths map[string][]sensor.Event, aa map[string]*sim.Result) (map[string]*sim.Result, int) {
	results, short := s.results, s.short
	clear(short)
	// Replaying graded traces cannot fail, so All returns no error.
	ok, _ := parallel.All(workers, len(pairs), func(j int) (bool, error) {
		i := (first + j) % len(pairs)
		tr, app := pairs[i].tr, pairs[i].app
		res := grades[tr].Run(app, step)
		key := truthKey(tr, app)
		if truth, ok := truths[key]; ok {
			res.RescoreAgainst(truth, int(app.MatchTolSec*tr.RateHz))
		}
		results[i] = res
		short[i] = res.Recall < aa[key].Recall-1e-9
		return !short[i], nil
	})
	if !ok {
		for j := range pairs {
			if i := (first + j) % len(pairs); short[i] {
				return nil, i
			}
		}
	}
	ran := make(map[string]*sim.Result, len(pairs))
	for i, p := range pairs {
		ran[truthKey(p.tr, p.app)] = results[i]
	}
	return ran, 0
}

// truthKey identifies a (trace, app) baseline in the truths map.
func truthKey(tr *sensor.Trace, app *apps.App) string {
	return tr.Name + "/" + app.Name
}
