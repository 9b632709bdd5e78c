package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// chromeTrace mirrors the exported document for schema checking.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func TestTracerChromeSchema(t *testing.T) {
	tr := NewTracer()
	var clk Clock
	phone := tr.Stream("phone", &clk)
	hub := tr.Stream("hub", &clk)

	clk.SetSec(1.5)
	phone.InstantStr("phone.state", "power", "to", "waking-up")
	hub.Instant1("wake.sent", "hub", "value", 3.25)
	hub.Span("stage window", "interp", 1.0, 0.25)
	phone.Counter("pending", 2)

	var out strings.Builder
	if err := tr.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 thread_name metadata + 4 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Errorf("event %d missing required key %q: %v", i, key, e)
			}
		}
	}
	// The instant carries the simulated timestamp in microseconds.
	var sawWake bool
	for _, e := range doc.TraceEvents {
		if e["name"] == "wake.sent" {
			sawWake = true
			if ts := e["ts"].(float64); ts != 1.5e6 {
				t.Errorf("wake ts = %g us, want 1.5e6", ts)
			}
			if e["ph"] != "i" {
				t.Errorf("wake ph = %v, want i", e["ph"])
			}
		}
		if e["name"] == "stage window" {
			if e["ph"] != "X" {
				t.Errorf("span ph = %v, want X", e["ph"])
			}
			if dur := e["dur"].(float64); dur != 0.25e6 {
				t.Errorf("span dur = %g us, want 0.25e6", dur)
			}
		}
	}
	if !sawWake {
		t.Error("trace missing wake.sent instant")
	}
}

func TestTracerStreamsGetDistinctTIDs(t *testing.T) {
	tr := NewTracer()
	var clk Clock
	a := tr.Stream("a", &clk)
	b := tr.Stream("b", &clk)
	if a.tid == b.tid {
		t.Errorf("streams share tid %d", a.tid)
	}
}

// TestTracerEventCap: a tracer buffers at most its cap and counts the
// rest dropped; a trace truncated at the cap carries the drop count in
// "otherData", a merged tracer reports the sum of its own and its cells'
// drops, and a trace that dropped nothing has no such key.
func TestTracerEventCap(t *testing.T) {
	capped := func(n int) *Tracer {
		tr := NewTracer()
		tr.max = 4
		var clk Clock
		s := tr.Stream("s", &clk) // 1 metadata event
		for i := 1; i < n; i++ {
			s.Instant("e", "c")
		}
		return tr
	}
	dropped := func(tr *Tracer) (int64, bool) {
		var out strings.Builder
		if err := tr.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			OtherData *struct {
				DroppedEvents int64 `json:"droppedEvents"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.OtherData == nil {
			return 0, false
		}
		return doc.OtherData.DroppedEvents, true
	}
	tr := capped(11)
	if got := tr.Events(); got != 4 {
		t.Errorf("buffered %d events, want cap 4", got)
	}
	if n, ok := dropped(tr); !ok || n != 7 {
		t.Errorf("droppedEvents = %d (present %v), want 7", n, ok)
	}
	tr.Merge("cell/", capped(6))
	if n, ok := dropped(tr); !ok || n != 7+2+4 {
		t.Errorf("merged droppedEvents = %d (present %v), want 13", n, ok)
	}
	if n, ok := dropped(capped(4)); ok {
		t.Errorf("a trace that dropped nothing reports droppedEvents = %d", n)
	}
}

func TestEmptyTracerExportsValidDocument(t *testing.T) {
	var out strings.Builder
	var tr *Tracer
	if err := tr.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Errorf("nil tracer must export an empty traceEvents array, got %v", doc.TraceEvents)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.SetSec(2)
	if c.NowUS() != 2e6 || c.NowSec() != 2 {
		t.Errorf("clock = %g us / %g s", c.NowUS(), c.NowSec())
	}
	var nilC *Clock
	nilC.SetSec(5)
	if nilC.NowUS() != 0 || nilC.NowSec() != 0 {
		t.Error("nil clock must read zero")
	}
}

// TestSetMergeMatchesSerial: cells that record into sinks of their own
// (Set.Cell) and are merged in cell order export exactly what recording
// them one after another into one set exports — registry order and
// values, ledger sums, stream ids and names, the event cap and the
// dropped count.
func TestSetMergeMatchesSerial(t *testing.T) {
	record := func(set Set, prefix string, i int) {
		clk := &Clock{}
		s := set.Tracer.Stream(prefix+"phone", clk)
		if i > 0 {
			set.Metrics.Counter("late").Add(int64(i))
		}
		set.Metrics.Counter("wakes").Inc()
		clk.SetSec(float64(i) + 0.1)
		s.Instant1("wake", "hub", "v", float64(i))
		set.Ledger.AddEnergyMJ(PhoneAwake, 0.1*float64(i+1))
		set.Ledger.AddStageCycles("fft", 0.3*float64(i+1))
	}
	serial := Set{Metrics: NewRegistry(), Ledger: NewLedger(), Tracer: NewTracer()}
	merged := Set{Metrics: NewRegistry(), Ledger: NewLedger(), Tracer: NewTracer()}
	serial.Tracer.max = 5
	merged.Tracer.max = 5
	for i, label := range []string{"a/", "b/", "c/"} {
		record(serial, label, i)
		cell := merged.Cell()
		record(cell, "", i)
		merged.Merge(label, cell)
	}
	export := func(set Set) string {
		var b strings.Builder
		if err := set.Metrics.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := set.Ledger.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := set.Tracer.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want, got := export(serial), export(merged)
	if got != want {
		t.Errorf("merged cells differ from a serial run:\nserial:\n%s\nmerged:\n%s", want, got)
	}
	if serial.Tracer.dropped == 0 {
		t.Error("the cap should have dropped events")
	}
}
