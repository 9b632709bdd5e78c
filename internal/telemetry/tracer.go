package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Tracer collects structured execution events — wake-ups, condition
// pushes, frame retransmissions, phone state transitions, per-stage
// execution spans — and exports them in the Chrome trace_event JSON Object
// Format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Events are organized into Streams: one named timeline per simulated
// component (phone, hub, wire), rendered as a thread track in the viewer.
// Streams stamp events from a shared per-run Clock holding simulated time,
// so components that have no notion of time (the link layer ticks, the
// interpreter counts samples) emit correctly-placed events without
// carrying a clock themselves.
//
// The tracer is mutex-protected, so goroutines may append to one tracer
// through their own streams; parallel evaluation cells record into
// tracers of their own instead (Set.Cell), merged in cell order, so
// stream ids do not follow the schedule. A nil *Tracer — and the nil *Stream it
// hands out — disables tracing with no allocation at any call site.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	nextTID int
	max     int
	dropped int64
}

// DefaultMaxEvents bounds a tracer's buffered events so an unexpectedly
// chatty run degrades (drops and counts) instead of exhausting memory.
const DefaultMaxEvents = 1 << 22

// traceEvent is one Chrome trace_event entry.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer { return &Tracer{max: DefaultMaxEvents} }

// Merge appends o's events to t as if o's streams had been registered on
// t: stream ids continue t's numbering, label prefixes each stream name,
// and t's event cap applies, with o's dropped events added to t's count.
// No-op when either side is nil.
func (t *Tracer) Merge(label string, o *Tracer) {
	if t == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextTID
	t.nextTID += o.nextTID
	t.dropped += o.dropped
	for _, e := range o.events {
		e.TID += base
		if e.Ph == "M" {
			e.Args = map[string]any{"name": label + e.Args["name"].(string)}
		}
		t.push(e)
	}
}

// Stream registers a named timeline bound to a clock and returns its
// handle. The name becomes the thread name in the trace viewer. Nil-safe:
// a nil tracer returns a nil stream whose methods are no-ops.
func (t *Tracer) Stream(name string, clk *Clock) *Stream {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTID++
	tid := t.nextTID
	t.mu.Unlock()
	s := &Stream{t: t, tid: tid, clk: clk}
	// Thread-name metadata event: viewers label the track with it.
	t.append(traceEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
		Args: map[string]any{"name": name},
	})
	return s
}

// Events returns how many events are buffered.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// tracePID is the constant process ID of the simulated system.
const tracePID = 1

func (t *Tracer) append(e traceEvent) {
	t.mu.Lock()
	t.push(e)
	t.mu.Unlock()
}

// push buffers e, or counts it dropped at the cap. t.mu must be held.
func (t *Tracer) push(e traceEvent) {
	if t.max > 0 && len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
}

// WriteJSON exports the trace in the Chrome trace_event JSON Object
// Format: {"traceEvents": [...], "displayTimeUnit": "ms"}. A tracer that
// dropped events at its cap says so in the format's metadata key,
// "otherData": {"droppedEvents": N}, so a truncated trace does not pass
// for a complete one; the key is absent when nothing was dropped.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var events []traceEvent
	var dropped int64
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		dropped = t.dropped
		t.mu.Unlock()
	}
	if events == nil {
		events = []traceEvent{}
	}
	type otherData struct {
		DroppedEvents int64 `json:"droppedEvents"`
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		OtherData       *otherData   `json:"otherData,omitempty"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		doc.OtherData = &otherData{dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Stream is one component's timeline within a tracer. All methods are
// nil-safe no-ops, so instrumented components hold a possibly-nil *Stream
// and emit unconditionally.
type Stream struct {
	t   *Tracer
	tid int
	clk *Clock
}

// NowSec returns the stream clock's current time in seconds (0 on nil).
func (s *Stream) NowSec() float64 {
	if s == nil {
		return 0
	}
	return s.clk.NowSec()
}

// Instant records a zero-duration event at the current clock time.
func (s *Stream) Instant(name, cat string) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Cat: cat, Ph: "i", S: "t",
		TS: s.clk.NowUS(), PID: tracePID, TID: s.tid})
}

// Instant1 records an instant with one numeric argument.
func (s *Stream) Instant1(name, cat, key string, v float64) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Cat: cat, Ph: "i", S: "t",
		TS: s.clk.NowUS(), PID: tracePID, TID: s.tid,
		Args: map[string]any{key: v}})
}

// Instant2 records an instant with two numeric arguments.
func (s *Stream) Instant2(name, cat, k1 string, v1 float64, k2 string, v2 float64) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Cat: cat, Ph: "i", S: "t",
		TS: s.clk.NowUS(), PID: tracePID, TID: s.tid,
		Args: map[string]any{k1: v1, k2: v2}})
}

// InstantStr records an instant with one string argument.
func (s *Stream) InstantStr(name, cat, key, val string) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Cat: cat, Ph: "i", S: "t",
		TS: s.clk.NowUS(), PID: tracePID, TID: s.tid,
		Args: map[string]any{key: val}})
}

// Span records a complete-duration event ("X" phase) starting at startSec
// and lasting durSec, both in simulated seconds.
func (s *Stream) Span(name, cat string, startSec, durSec float64) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Cat: cat, Ph: "X",
		TS: startSec * 1e6, Dur: durSec * 1e6, PID: tracePID, TID: s.tid})
}

// Counter records a counter-track sample ("C" phase) at the current clock
// time; viewers render it as a stepped graph.
func (s *Stream) Counter(name string, v float64) {
	if s == nil {
		return
	}
	s.t.append(traceEvent{Name: name, Ph: "C",
		TS: s.clk.NowUS(), PID: tracePID, TID: s.tid,
		Args: map[string]any{"value": v}})
}
