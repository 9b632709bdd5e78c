// Package sensor defines the trace containers the evaluation pipeline
// works with: multi-channel sample streams annotated with ground-truth
// event intervals (paper §4.1). Traces are produced by package tracegen,
// consumed by the simulator, and can be persisted as JSON (readable) or a
// compact binary format (large captures).
package sensor

import (
	"fmt"
	"sort"
	"time"

	"sidewinder/internal/core"
)

// Event is one labeled ground-truth interval within a trace. Sample
// indices are half-open: [Start, End).
type Event struct {
	Label string `json:"label"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

// Duration returns the event length in samples.
func (e Event) Duration() int { return e.End - e.Start }

// Overlaps reports whether the event intersects [start, end).
func (e Event) Overlaps(start, end int) bool {
	return e.Start < end && start < e.End
}

// Trace is a recorded (or synthesized) multi-channel sensor capture with
// ground truth. All channels share one sampling rate and length.
type Trace struct {
	// Name identifies the trace in reports ("robot-g1-run3",
	// "audio-office", "human-commute").
	Name string `json:"name"`
	// RateHz is the per-channel sampling rate.
	RateHz float64 `json:"rate_hz"`
	// Channels holds the sample streams keyed by sensor channel.
	Channels map[core.SensorChannel][]float64 `json:"channels"`
	// Events is the ground-truth annotation, sorted by start index.
	// Traces without ground truth (the human captures of §4.1) leave it
	// empty.
	Events []Event `json:"events,omitempty"`
	// Meta carries free-form attributes ("group": "1", "environment":
	// "office").
	Meta map[string]string `json:"meta,omitempty"`
}

// Len returns the per-channel sample count (0 for an empty trace). It
// ranges over the channel map to find a channel, so hot loops hoist it
// rather than evaluating it per sample.
func (t *Trace) Len() int {
	for _, s := range t.Channels {
		return len(s)
	}
	return 0
}

// Duration returns the trace length as wall-clock time.
func (t *Trace) Duration() time.Duration {
	if t.RateHz <= 0 {
		return 0
	}
	return time.Duration(float64(t.Len()) / t.RateHz * float64(time.Second))
}

// ChannelList returns the trace's channels in the canonical core order.
func (t *Trace) ChannelList() []core.SensorChannel {
	var out []core.SensorChannel
	for _, ch := range core.Channels() {
		if _, ok := t.Channels[ch]; ok {
			out = append(out, ch)
		}
	}
	return out
}

// Validate checks structural invariants: at least one channel, equal
// channel lengths, valid channel names, events sorted, in range, and
// non-degenerate.
func (t *Trace) Validate() error {
	if t.RateHz <= 0 {
		return fmt.Errorf("sensor: trace %q has non-positive rate %g", t.Name, t.RateHz)
	}
	if len(t.Channels) == 0 {
		return fmt.Errorf("sensor: trace %q has no channels", t.Name)
	}
	n := -1
	for ch, samples := range t.Channels {
		if !ch.Valid() {
			return fmt.Errorf("sensor: trace %q has unknown channel %q", t.Name, ch)
		}
		if n == -1 {
			n = len(samples)
		} else if len(samples) != n {
			return fmt.Errorf("sensor: trace %q channel %s has %d samples, others have %d", t.Name, ch, len(samples), n)
		}
	}
	prev := -1
	for i, e := range t.Events {
		if e.Label == "" {
			return fmt.Errorf("sensor: trace %q event %d has empty label", t.Name, i)
		}
		if e.Start < 0 || e.End > n || e.Start >= e.End {
			return fmt.Errorf("sensor: trace %q event %d [%d,%d) out of range (len %d)", t.Name, i, e.Start, e.End, n)
		}
		if e.Start < prev {
			return fmt.Errorf("sensor: trace %q events not sorted by start", t.Name)
		}
		prev = e.Start
	}
	return nil
}

// EventsLabeled returns the events carrying the given label, in order.
func (t *Trace) EventsLabeled(label string) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Label == label {
			out = append(out, e)
		}
	}
	return out
}

// Labels returns the distinct event labels in lexical order.
func (t *Trace) Labels() []string {
	set := make(map[string]bool)
	for _, e := range t.Events {
		set[e.Label] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// LabeledFraction returns the fraction of the trace covered by events with
// the given label (overlaps are not double-counted because generators emit
// non-overlapping events; Validate enforces sorted order).
func (t *Trace) LabeledFraction(label string) float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	covered := 0
	lastEnd := 0
	for _, e := range t.Events {
		if e.Label != label {
			continue
		}
		start := e.Start
		if start < lastEnd {
			start = lastEnd
		}
		if e.End > start {
			covered += e.End - start
			lastEnd = e.End
		}
	}
	return float64(covered) / float64(n)
}

// Slice returns a sub-trace covering samples [start, end), clamped to the
// trace bounds. Events are intersected and re-based.
func (t *Trace) Slice(start, end int) *Trace {
	n := t.Len()
	if start < 0 {
		start = 0
	}
	if end > n {
		end = n
	}
	if start > end {
		start = end
	}
	out := &Trace{
		Name:     fmt.Sprintf("%s[%d:%d]", t.Name, start, end),
		RateHz:   t.RateHz,
		Channels: make(map[core.SensorChannel][]float64, len(t.Channels)),
		Meta:     t.Meta,
	}
	for ch, samples := range t.Channels {
		out.Channels[ch] = samples[start:end]
	}
	for _, e := range t.Events {
		if !e.Overlaps(start, end) {
			continue
		}
		ne := Event{Label: e.Label, Start: e.Start - start, End: e.End - start}
		if ne.Start < 0 {
			ne.Start = 0
		}
		if ne.End > end-start {
			ne.End = end - start
		}
		out.Events = append(out.Events, ne)
	}
	return out
}

// SampleIndexAt converts a time offset into a sample index, clamped to the
// trace bounds.
func (t *Trace) SampleIndexAt(d time.Duration) int {
	i := int(d.Seconds() * t.RateHz)
	if i < 0 {
		i = 0
	}
	if n := t.Len(); i > n {
		i = n
	}
	return i
}
