package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %g, want 3", got)
	}
	if r.Counter("a.count") != c {
		t.Error("re-registering a counter must return the interned handle")
	}
	if r.Gauge("a.gauge") != g {
		t.Error("re-registering a gauge must return the interned handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5556.5 {
		t.Errorf("sum = %g, want 5556.5", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	wantCounts := []int64{2, 1, 1, 2} // <=1, <=10, <=100, +Inf
	for i, b := range snap[0].Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent")
	h := r.Histogram("hist", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				r.Gauge("late.gauge").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("late.gauge").Value(); got != 8000 {
		t.Errorf("gauge = %g, want 8000", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	var l *Ledger
	l.AddEnergyMJ(PhoneAwake, 1)
	l.AddStageCycles("window", 1)
	if l.TotalMJ() != 0 || l.TotalCycles() != 0 {
		t.Error("nil ledger must read zero")
	}
	var tr *Tracer
	s := tr.Stream("phone", nil)
	s.Instant("wake", "hub")
	s.Instant1("wake", "hub", "v", 1)
	s.Span("span", "hub", 0, 1)
	s.Counter("c", 1)
	if tr.Events() != 0 {
		t.Error("nil tracer must buffer nothing")
	}
	var set *Set
	set.Merge("cell/", Set{Ledger: NewLedger(), Tracer: NewTracer()})
	if cell := set.Cell(); set.Enabled() || cell.Enabled() {
		t.Error("nil set must be fully disabled")
	}
}

func TestExporters(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.gauge").Set(1.5)
	r.Histogram("c.hist", []float64{1}).Observe(2)

	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.gauge", "b.count", "counter 7", "gauge 1.5", "le=+Inf"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text export missing %q:\n%s", want, text.String())
		}
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap []MetricSnapshot
	if err := json.Unmarshal([]byte(js.String()), &snap); err != nil {
		t.Fatalf("JSON export does not round-trip: %v\n%s", err, js.String())
	}
	if len(snap) != 3 {
		t.Errorf("JSON export has %d metrics, want 3", len(snap))
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	l.AddEnergyMJ(PhoneAsleep, 10)
	l.AddEnergyMJ(PhoneAwake, 20)
	l.AddEnergyMJ(HubDevice, 5)
	l.AddEnergyMJ(LinkWire, 1.5)
	l.AddEnergyMJ(LinkRetransmit, 0.5)
	if got := l.TotalMJ(); got != 37 {
		t.Errorf("total = %g, want 37", got)
	}
	if got := l.EnergyMJ(PhoneAwake); got != 20 {
		t.Errorf("phone awake = %g, want 20", got)
	}
	l.AddStageCycles("window", 100)
	l.AddStageCycles("fft", 300)
	l.AddStageCycles("window", 50)
	if got := l.StageCycles("window"); got != 150 {
		t.Errorf("window cycles = %g, want 150", got)
	}
	if got := l.TotalCycles(); got != 450 {
		t.Errorf("total cycles = %g, want 450", got)
	}

	var text strings.Builder
	if err := l.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phone.awake", "hub.device", "link.retransmit", "fft"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("ledger text missing %q:\n%s", want, text.String())
		}
	}
	var js strings.Builder
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap LedgerSnapshot
	if err := json.Unmarshal([]byte(js.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TotalMJ != 37 || snap.TotalCycles != 450 {
		t.Errorf("snapshot totals = %g mJ / %g cycles, want 37 / 450", snap.TotalMJ, snap.TotalCycles)
	}
}

func TestInterpProfile(t *testing.T) {
	p := NewInterpProfile()
	w := p.Stage("window")
	f := p.Stage("fft")
	if p.Stage("window") != w {
		t.Error("stage handles must be interned")
	}
	w.Record(10, 2, true)
	w.Record(10, 2, false)
	f.Record(100, 0, true)
	if w.Invocations != 2 || w.Emissions != 1 || w.FloatOps != 20 || w.IntOps != 4 {
		t.Errorf("window stat = %+v", *w)
	}
	fl, in := p.TotalOps()
	if fl != 120 || in != 4 {
		t.Errorf("total ops = %g/%g, want 120/4", fl, in)
	}
	stages := p.Stages()
	if len(stages) != 2 || stages[0].Kind != "fft" || stages[1].Kind != "window" {
		t.Errorf("stages not sorted by kind: %+v", stages)
	}

	l := NewLedger()
	p.DepositCycles(l, func(f, i float64) float64 { return f*3 + i }) // LM4F120-style rates
	if got := l.StageCycles("fft"); got != 300 {
		t.Errorf("fft cycles = %g, want 300", got)
	}
	if got := l.StageCycles("window"); got != 64 {
		t.Errorf("window cycles = %g, want 64", got)
	}

	var nilP *InterpProfile
	nilP.Stage("x").Record(1, 1, true)
	if fl, in := nilP.TotalOps(); fl != 0 || in != 0 {
		t.Error("nil profile must record nothing")
	}
}
