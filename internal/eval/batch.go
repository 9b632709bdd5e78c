package eval

import (
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/interp"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// The evaluation matrix is embarrassingly parallel: every (strategy, app,
// trace) cell builds its own machine and owns its seeded state, so cells
// are share-nothing. A runBatch lets an experiment enqueue all of its
// cells first, execute them through one bounded worker pool, and then read
// the results back in enqueue order — the aggregation loop that renders a
// table therefore sees exactly the sequence a serial run would have
// produced, making tables byte-identical across worker counts.

// cellJob is one (strategy, app, trace) simulation cell, or a result that
// already ran (done), which run hands back as it is.
type cellJob struct {
	s    sim.Strategy
	tr   *sensor.Trace
	app  *apps.App
	done *sim.Result
}

// cellOutcome is a completed cell: its result or its error. Errors stay
// attached to their cell so callers with expected failures (e.g. the
// device sweep probing infeasible placements) can handle them per handle.
type cellOutcome struct {
	res *sim.Result
	err error
}

// runBatch accumulates cells and their outcomes.
type runBatch struct {
	jobs []cellJob
	out  []cellOutcome
}

// cellRange addresses a contiguous run of enqueued cells; its results are
// readable after runBatch.run.
type cellRange struct {
	b          *runBatch
	start, end int
}

// add enqueues the strategy over every trace for one app and returns the
// handle to read the results back after run.
func (b *runBatch) add(s sim.Strategy, traces []*sensor.Trace, app *apps.App) cellRange {
	start := len(b.jobs)
	for _, tr := range traces {
		b.jobs = append(b.jobs, cellJob{s: s, tr: tr, app: app})
	}
	return cellRange{b: b, start: start, end: len(b.jobs)}
}

// addOne enqueues one (strategy, app, trace) cell.
func (b *runBatch) addOne(s sim.Strategy, tr *sensor.Trace, app *apps.App) cellRange {
	return b.add(s, []*sensor.Trace{tr}, app)
}

// reuse enqueues results that already ran, so they read back like any
// other range without running again.
func (b *runBatch) reuse(results []*sim.Result) cellRange {
	start := len(b.jobs)
	for _, res := range results {
		b.jobs = append(b.jobs, cellJob{done: res})
	}
	return cellRange{b: b, start: start, end: len(b.jobs)}
}

// run executes every enqueued cell through the pool. Outcomes land in
// submission order regardless of the schedule. Telemetry (when enabled)
// and the interpreter precision are injected into every Sidewinder cell
// here — the one place all experiments funnel through — with a per-cell
// trace label so parallel cells land on distinct streams while sharing
// the registry and ledger.
func (b *runBatch) run(workers int, tele telemetry.Set, prec interp.Precision) {
	// Map's fn never errors: each cell's error is part of its outcome.
	b.out, _ = parallel.Map(workers, len(b.jobs), func(i int) (cellOutcome, error) {
		j := b.jobs[i]
		if j.done != nil {
			return cellOutcome{res: j.done}, nil
		}
		s := j.s
		if sw, ok := s.(sim.Sidewinder); ok {
			sw.Precision = prec
			if tele.Enabled() {
				sw.Telemetry = tele
				sw.TraceLabel = fmt.Sprintf("%s/%s/%s/", sw.Name(), j.app.Name, j.tr.Name)
			}
			s = sw
		}
		// Adaptive cells take telemetry but NOT the precision override:
		// precision is one of the axes the policy engine drives.
		if sw, ok := s.(sim.AdaptiveSidewinder); ok && tele.Enabled() {
			sw.Telemetry = tele
			sw.TraceLabel = fmt.Sprintf("%s/%s/%s/", sw.Name(), j.app.Name, j.tr.Name)
			s = sw
		}
		r, err := s.Run(j.tr, j.app)
		if err != nil {
			err = fmt.Errorf("eval: %s/%s on %s: %w", j.s.Name(), j.app.Name, j.tr.Name, err)
		}
		return cellOutcome{res: r, err: err}, nil
	})
}

// first returns the single result of a one-cell range, or its error.
func (h cellRange) first() (*sim.Result, error) {
	res, err := h.results()
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// results returns the range's results in submission order, or its first
// error.
func (h cellRange) results() ([]*sim.Result, error) {
	out := make([]*sim.Result, 0, h.end-h.start)
	for _, oc := range h.b.out[h.start:h.end] {
		if oc.err != nil {
			return nil, oc.err
		}
		out = append(out, oc.res)
	}
	return out, nil
}
