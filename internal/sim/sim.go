// Package sim implements the trace-driven simulator of the evaluation
// (paper §4): it replays a sensor trace under a sensing configuration
// (strategy), drives the phone's power state machine, delivers the data the
// configuration actually makes available to the application's main-CPU
// classifier, and reports energy, wake-ups, recall and precision.
package sim

import (
	"fmt"
	"sort"

	"sidewinder/internal/apps"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
)

// Interval is a half-open sample range [Start, End) of trace data delivered
// to the application.
type Interval struct {
	Start, End int
}

// Delivery records when a chunk of trace data reached the application:
// the phone processed samples [Start, End) at sample-time At. Strategies
// that defer data (batching, duty cycling) populate it so experiments can
// measure detection latency (paper §5.4: batching "is not appropriate for
// applications with timeliness constraints").
type Delivery struct {
	Start, End int
	At         int
}

// Result is the outcome of one (strategy, application, trace) simulation.
type Result struct {
	Strategy string
	App      string
	Trace    string

	Power power.Report

	// Detections are the main-CPU classifier's outputs over the data the
	// strategy delivered.
	Detections []sensor.Event
	// Truth is the ground truth used for the metrics (label-filtered
	// trace events, or a baseline's detections for unlabeled traces).
	Truth []sensor.Event

	Recall    float64
	Precision float64
	TP, FP    int

	// Device is the hub microcontroller the strategy used ("" if none);
	// HubUtilization its cycle-budget fraction for Sidewinder.
	Device         string
	HubUtilization float64

	// Deliveries records when data reached the application, for
	// latency analysis (populated by DutyCycling and Batching).
	Deliveries []Delivery

	// Adapt reports the policy engine's trajectory and the hub-energy
	// decomposition (populated by AdaptiveSidewinder).
	Adapt *AdaptStats
}

// MeanDetectionLatencySec returns the average delay, in seconds, between a
// truth event starting and the application first receiving data covering
// that event's end. Events whose data never arrives are skipped; ok
// reports whether any event was measurable.
func (r *Result) MeanDetectionLatencySec(rateHz float64) (sec float64, ok bool) {
	if rateHz <= 0 || len(r.Deliveries) == 0 {
		return 0, false
	}
	var sum float64
	var n int
	for _, e := range r.Truth {
		for _, d := range r.Deliveries {
			if d.Start <= e.Start && e.End <= d.End+1 {
				sum += float64(d.At-e.Start) / rateHz
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s on %s: %.1f mW, %d wake-ups, recall %.2f, precision %.2f",
		r.Strategy, r.App, r.Trace, r.Power.TotalAvgMW, r.Power.WakeUps, r.Recall, r.Precision)
}

// Strategy is one sensing configuration of paper §4.2.
type Strategy interface {
	Name() string
	Run(tr *sensor.Trace, app *apps.App) (*Result, error)
}

// mergeIntervals sorts and coalesces overlapping or touching intervals.
func mergeIntervals(in []Interval) []Interval {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	out := []Interval{in[0]}
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// detectOver runs the app's classifier over each delivered interval and
// merges duplicate detections from overlapping deliveries.
func detectOver(tr *sensor.Trace, app *apps.App, intervals []Interval) []sensor.Event {
	var out []sensor.Event
	for _, iv := range mergeIntervals(intervals) {
		out = append(out, app.Detector.Detect(tr, iv.Start, iv.End)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return dedupeEvents(out)
}

// dedupeEvents merges overlapping detections of the same label.
func dedupeEvents(events []sensor.Event) []sensor.Event {
	var out []sensor.Event
	for _, e := range events {
		if n := len(out); n > 0 && out[n-1].Label == e.Label && e.Start < out[n-1].End {
			if e.End > out[n-1].End {
				out[n-1].End = e.End
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// Match scores detections against ground truth with the given tolerance in
// samples: a truth event is recalled if any detection overlaps it
// (tolerance-expanded); a detection is a true positive if it overlaps any
// truth event.
func Match(truth, detections []sensor.Event, tolSamples int) (recall, precision float64, tp, fp int) {
	recalled := 0
	for _, t := range truth {
		for _, d := range detections {
			if d.Overlaps(t.Start-tolSamples, t.End+tolSamples) {
				recalled++
				break
			}
		}
	}
	for _, d := range detections {
		hit := false
		for _, t := range truth {
			if d.Overlaps(t.Start-tolSamples, t.End+tolSamples) {
				hit = true
				break
			}
		}
		if hit {
			tp++
		} else {
			fp++
		}
	}
	recall, precision = 1, 1
	if len(truth) > 0 {
		recall = float64(recalled) / float64(len(truth))
	}
	if len(detections) > 0 {
		precision = float64(tp) / float64(len(detections))
	}
	return recall, precision, tp, fp
}

// finish assembles a Result from a completed phone timeline and delivered
// data, scored against the trace's events labeled for the app.
func finish(strategyName string, tr *sensor.Trace, app *apps.App, ph *power.Phone,
	hubMW float64, intervals []Interval) *Result {

	truth := tr.EventsLabeled(app.Label)
	detections := detectOver(tr, app, intervals)
	tol := int(app.MatchTolSec * tr.RateHz)
	recall, precision, tp, fp := Match(truth, detections, tol)
	return &Result{
		Strategy:   strategyName,
		App:        app.Name,
		Trace:      tr.Name,
		Power:      power.Summarize(ph, hubMW),
		Detections: detections,
		Truth:      truth,
		Recall:     recall,
		Precision:  precision,
		TP:         tp,
		FP:         fp,
	}
}

// RescoreAgainst recomputes a result's metrics against a different truth
// set (e.g. Always-Awake detections on unlabeled human traces, paper §5.5).
func (r *Result) RescoreAgainst(truth []sensor.Event, tolSamples int) {
	r.Truth = truth
	r.Recall, r.Precision, r.TP, r.FP = Match(truth, r.Detections, tolSamples)
}
