package sensor

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sidewinder/internal/core"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:   "test",
		RateHz: 50,
		Channels: map[core.SensorChannel][]float64{
			core.AccelX: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			core.AccelY: {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
			core.AccelZ: {9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8, 9.8},
		},
		Events: []Event{
			{Label: "step", Start: 1, End: 3},
			{Label: "headbutt", Start: 4, End: 6},
			{Label: "step", Start: 7, End: 9},
		},
		Meta: map[string]string{"group": "1"},
	}
}

func TestTraceBasics(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d", tr.Len())
	}
	if d := tr.Duration(); d != 200*time.Millisecond {
		t.Errorf("Duration = %v", d)
	}
	if got := tr.ChannelList(); len(got) != 3 || got[0] != core.AccelX {
		t.Errorf("ChannelList = %v", got)
	}
	if got := tr.Labels(); len(got) != 2 || got[0] != "headbutt" || got[1] != "step" {
		t.Errorf("Labels = %v", got)
	}
	if got := tr.EventsLabeled("step"); len(got) != 2 {
		t.Errorf("EventsLabeled(step) = %v", got)
	}
	if f := tr.LabeledFraction("step"); math.Abs(f-0.4) > 1e-12 {
		t.Errorf("LabeledFraction(step) = %g, want 0.4", f)
	}
	if f := tr.LabeledFraction("nothing"); f != 0 {
		t.Errorf("LabeledFraction(nothing) = %g", f)
	}
}

func TestEmptyTrace(t *testing.T) {
	var tr Trace
	if tr.Len() != 0 || tr.Duration() != 0 {
		t.Error("empty trace should have zero length and duration")
	}
	if err := tr.Validate(); err == nil {
		t.Error("empty trace should fail validation")
	}
}

func TestEventHelpers(t *testing.T) {
	e := Event{Label: "x", Start: 5, End: 10}
	if e.Duration() != 5 {
		t.Errorf("Duration = %d", e.Duration())
	}
	for _, tc := range []struct {
		lo, hi int
		want   bool
	}{
		{0, 5, false}, {0, 6, true}, {9, 20, true}, {10, 20, false}, {6, 8, true},
	} {
		if got := e.Overlaps(tc.lo, tc.hi); got != tc.want {
			t.Errorf("Overlaps(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"bad rate", func(tr *Trace) { tr.RateHz = 0 }, "non-positive rate"},
		{"unequal channels", func(tr *Trace) { tr.Channels[core.AccelX] = []float64{1} }, "samples"},
		{"unknown channel", func(tr *Trace) { tr.Channels["WAT"] = make([]float64, 10) }, "unknown channel"},
		{"empty label", func(tr *Trace) { tr.Events[0].Label = "" }, "empty label"},
		{"event out of range", func(tr *Trace) { tr.Events[2].End = 99 }, "out of range"},
		{"degenerate event", func(tr *Trace) { tr.Events[0].End = tr.Events[0].Start }, "out of range"},
		{"unsorted events", func(tr *Trace) { tr.Events[0], tr.Events[2] = tr.Events[2], tr.Events[0] }, "not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sampleTrace()
			tc.mutate(tr)
			err := tr.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestSlice(t *testing.T) {
	tr := sampleTrace()
	sub := tr.Slice(2, 8)
	if sub.Len() != 6 {
		t.Fatalf("sub len = %d", sub.Len())
	}
	if got := sub.Channels[core.AccelX][0]; got != 2 {
		t.Errorf("first X sample = %g", got)
	}
	// Events: step[1,3) clips to [0,1); headbutt[4,6) -> [2,4); step[7,9) clips to [5,6).
	if len(sub.Events) != 3 {
		t.Fatalf("sub events = %v", sub.Events)
	}
	if sub.Events[0] != (Event{Label: "step", Start: 0, End: 1}) {
		t.Errorf("event 0 = %+v", sub.Events[0])
	}
	if sub.Events[1] != (Event{Label: "headbutt", Start: 2, End: 4}) {
		t.Errorf("event 1 = %+v", sub.Events[1])
	}
	if sub.Events[2] != (Event{Label: "step", Start: 5, End: 6}) {
		t.Errorf("event 2 = %+v", sub.Events[2])
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range slicing clamps.
	if got := tr.Slice(-5, 99).Len(); got != 10 {
		t.Errorf("clamped slice len = %d", got)
	}
	if got := tr.Slice(8, 2).Len(); got != 0 {
		t.Errorf("inverted slice len = %d", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got, 0)
}

func TestJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","rate_hz":0,"channels":{}}`)); err == nil {
		t.Error("invalid trace should fail validation")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// float32 storage: tolerance on samples.
	assertTracesEqual(t, tr, got, 1e-6)
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, events uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) + 10
		tr := &Trace{
			Name:     "prop",
			RateHz:   50,
			Channels: map[core.SensorChannel][]float64{core.AccelX: make([]float64, n)},
			Meta:     map[string]string{"k": "v"},
		}
		for i := range tr.Channels[core.AccelX] {
			tr.Channels[core.AccelX][i] = rng.NormFloat64() * 10
		}
		start := 0
		for e := 0; e < int(events%5) && start < n-2; e++ {
			end := start + 1 + rng.Intn(n-start-1)
			tr.Events = append(tr.Events, Event{Label: "e", Start: start, End: end})
			start = end
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() || len(got.Events) != len(tr.Events) {
			return false
		}
		for i, v := range tr.Channels[core.AccelX] {
			if math.Abs(got.Channels[core.AccelX][i]-v) > 1e-4*(1+math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadBinary(bytes.NewReader(data[:3])); err == nil {
		t.Error("truncated magic should fail")
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated body should fail")
	}
	// Corrupt the version.
	verBad := append([]byte(nil), data...)
	verBad[4] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(verBad)); err == nil {
		t.Error("bad version should fail")
	}
}

func assertTracesEqual(t *testing.T, want, got *Trace, tol float64) {
	t.Helper()
	if got.Name != want.Name || got.RateHz != want.RateHz {
		t.Errorf("header mismatch: %q/%g vs %q/%g", got.Name, got.RateHz, want.Name, want.RateHz)
	}
	if len(got.Channels) != len(want.Channels) {
		t.Fatalf("channel count %d vs %d", len(got.Channels), len(want.Channels))
	}
	for ch, ws := range want.Channels {
		gs := got.Channels[ch]
		if len(gs) != len(ws) {
			t.Fatalf("%s: %d samples vs %d", ch, len(gs), len(ws))
		}
		for i := range ws {
			if math.Abs(gs[i]-ws[i]) > tol*(1+math.Abs(ws[i])) {
				t.Fatalf("%s[%d] = %g, want %g", ch, i, gs[i], ws[i])
			}
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("events %v vs %v", got.Events, want.Events)
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
	for k, v := range want.Meta {
		if got.Meta[k] != v {
			t.Errorf("meta[%s] = %q, want %q", k, got.Meta[k], v)
		}
	}
}
