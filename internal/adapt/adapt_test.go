package adapt

import (
	"math"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/sched"
)

// testPlan builds accelX -> window -> stat -> minThreshold, the shape of
// the accel wake conditions.
func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	p := core.NewPipeline("test")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(50, 25, "rectangular")).
		Add(core.Stat("stddev")).
		Add(core.MinThreshold(0.5)))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSignalString(t *testing.T) {
	for sig, want := range map[Signal]string{
		TrueWake: "true-wake", FalseWake: "false-wake", MissedWake: "missed-wake",
		Signal(99): "Signal(99)",
	} {
		if got := sig.String(); got != want {
			t.Errorf("Signal(%d).String() = %q, want %q", int(sig), got, want)
		}
	}
}

func TestLadderShape(t *testing.T) {
	e := NewEngine(DefaultConfig())
	ladder := e.Ladder()
	want := []Knobs{
		{Decimation: 1, WindowScale: 1, Precision: interp.Float64},
		{Decimation: 1, WindowScale: 1, Precision: interp.Q15},
		{Decimation: 2, WindowScale: 2, Precision: interp.Q15},
		{Decimation: 4, WindowScale: 2, Precision: interp.Q15},
	}
	if len(ladder) != len(want) {
		t.Fatalf("ladder has %d rungs, want %d: %+v", len(ladder), len(want), ladder)
	}
	for i, k := range want {
		if ladder[i] != k {
			t.Errorf("rung %d = %+v, want %+v", i, ladder[i], k)
		}
	}

	// No Q15: the float rung chain.
	cfg := DefaultConfig()
	cfg.AllowQ15 = false
	ladder = NewEngine(cfg).Ladder()
	for i, k := range ladder {
		if k.Precision != interp.Float64 {
			t.Errorf("rung %d precision = %v with AllowQ15=false", i, k.Precision)
		}
	}
	if len(ladder) != 3 {
		t.Errorf("no-Q15 ladder has %d rungs, want 3", len(ladder))
	}
}

func TestEngineEscalatesAfterPatience(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patience = 3
	e := NewEngine(cfg)
	for i := 0; i < 2; i++ {
		e.Observe(TrueWake)
	}
	if e.Stats().Rung != 0 {
		t.Fatalf("escalated before patience: %+v", e.Stats())
	}
	e.Observe(TrueWake)
	if got := e.Stats().Rung; got != 1 {
		t.Fatalf("rung = %d after patience, want 1", got)
	}
	if !e.TakeDirty() {
		t.Fatal("escalation did not mark the engine dirty")
	}
	if e.TakeDirty() {
		t.Fatal("TakeDirty did not clear the flag")
	}
	if k := e.Knobs(); k.Precision != interp.Q15 || k.Decimation != 1 {
		t.Fatalf("rung 1 knobs = %+v", k)
	}
}

func TestEngineMissedWakeResetsToBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patience = 1
	cfg.Cooldown = 2
	cfg.MissedWakeBound = 0.5 // the single probe miss must not pin the rate
	e := NewEngine(cfg)
	e.Observe(TrueWake)
	e.Observe(TrueWake) // rung 2
	e.Observe(FalseWake)
	e.Observe(FalseWake) // factor > 1
	if s := e.Stats(); s.Rung != 2 {
		t.Fatalf("setup rung = %d, want 2", s.Rung)
	}
	e.Observe(MissedWake)
	if s := e.Stats(); s.Rung != 0 {
		t.Fatalf("rung = %d after miss, want 0", s.Rung)
	}
	if k := e.Knobs(); k.ThresholdFactor != 1 {
		t.Fatalf("threshold factor %g not reset by miss", k.ThresholdFactor)
	}
	// Cooldown: the next Cooldown true wakes must not escalate.
	e.TakeDirty()
	e.Observe(TrueWake)
	e.Observe(TrueWake)
	if s := e.Stats(); s.Rung != 0 {
		t.Fatalf("escalated during cooldown: %+v", s)
	}
	e.Observe(TrueWake) // cooldown spent, patience 1 met
	if s := e.Stats(); s.Rung != 1 {
		t.Fatalf("rung = %d after cooldown, want 1", s.Rung)
	}
}

func TestEngineMissedWakeBoundBlocksEscalation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patience = 1
	cfg.Cooldown = 0
	cfg.MissedWakeBound = 0.01
	e := NewEngine(cfg)
	e.Observe(MissedWake) // missed rate 1.0
	for i := 0; i < 5; i++ {
		e.Observe(TrueWake)
	}
	// 1 miss / 6 observed = 0.17 > 0.01: the engine must hold baseline.
	if s := e.Stats(); s.Rung != 0 {
		t.Fatalf("escalated above the missed-wake bound: %+v", s)
	}
	if got := e.MissedRate(); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("missed rate = %g, want 1/6", got)
	}
}

func TestEngineThresholdAIMD(t *testing.T) {
	cfg := DefaultConfig()
	e := NewEngine(cfg)
	e.Observe(FalseWake)
	if k := e.Knobs(); math.Abs(k.ThresholdFactor-1.05) > 1e-12 {
		t.Fatalf("factor = %g after false wake, want 1.05", k.ThresholdFactor)
	}
	for i := 0; i < 100; i++ {
		e.Observe(FalseWake)
	}
	if k := e.Knobs(); k.ThresholdFactor != cfg.ThresholdMax {
		t.Fatalf("factor = %g not capped at %g", k.ThresholdFactor, cfg.ThresholdMax)
	}
	for i := 0; i < 1000; i++ {
		e.Observe(TrueWake)
	}
	if k := e.Knobs(); k.ThresholdFactor != 1 {
		t.Fatalf("factor = %g did not decay to 1", k.ThresholdFactor)
	}
	// At the floor a true wake changes nothing, so there is nothing to
	// re-push.
	e.TakeDirty()
	e.Observe(TrueWake)
	if e.TakeDirty() {
		t.Fatal("true wake at factor 1 reported a change")
	}
}

func TestEngineVetoClampsRung(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Patience = 1
	e := NewEngine(cfg)
	e.Observe(TrueWake)
	e.Observe(TrueWake) // rung 2
	e.TakeDirty()
	e.Veto()
	if s := e.Stats(); s.Rung != 1 || s.MaxRung != 1 || s.Vetoes != 1 {
		t.Fatalf("after veto: %+v", s)
	}
	if !e.TakeDirty() {
		t.Fatal("veto fallback did not mark dirty")
	}
	// The vetoed rung is never proposed again, however many wakes follow.
	for i := 0; i < 50; i++ {
		e.Observe(TrueWake)
	}
	if s := e.Stats(); s.Rung != 1 {
		t.Fatalf("re-escalated past a veto: %+v", s)
	}
	// Veto at rung 0 pins the engine to the pushed configuration.
	e.Veto() // rung 1 -> 0
	e.Veto() // at rung 0
	if s := e.Stats(); s.Rung != 0 || s.MaxRung != 0 {
		t.Fatalf("rung-0 veto: %+v", s)
	}
}

func TestNewEngineClampsInvalidConfig(t *testing.T) {
	e := NewEngine(Config{MaxDecimation: -3, MaxWindowScale: 0, ThresholdMax: 0,
		Patience: 0, Cooldown: -1, MissedWakeBound: -0.5})
	if len(e.Ladder()) != 1 {
		t.Fatalf("clamped config ladder = %+v, want baseline only", e.Ladder())
	}
	e.Observe(FalseWake)
	if k := e.Knobs(); k.ThresholdFactor != 1 {
		t.Fatalf("ThresholdMax clamp failed: factor %g", k.ThresholdFactor)
	}
}

func TestReparameterizeBaseline(t *testing.T) {
	cat := core.DefaultCatalog()
	base := testPlan(t)
	got, err := Reparameterize(cat, base, Knobs{Decimation: 1, WindowScale: 1, ThresholdFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(base.Nodes) {
		t.Fatalf("baseline reparameterization changed node count: %d != %d", len(got.Nodes), len(base.Nodes))
	}
	bf, bi, bm := Demand(base, interp.Float64)
	gf, gi, gm := Demand(got, interp.Float64)
	if bf != gf || bi != gi || bm != gm {
		t.Fatalf("baseline reparameterization changed cost: (%g,%g,%d) != (%g,%g,%d)",
			gf, gi, gm, bf, bi, bm)
	}
}

func TestReparameterizeDecimation(t *testing.T) {
	cat := core.DefaultCatalog()
	base := testPlan(t)
	got, err := Reparameterize(cat, base, Knobs{Decimation: 4, WindowScale: 1, ThresholdFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(base.Nodes)+1 {
		t.Fatalf("decimation did not insert one node per channel: %d nodes", len(got.Nodes))
	}
	if got.Nodes[0].Kind != core.KindDecimate {
		t.Fatalf("head node is %s, want decimate", got.Nodes[0].Kind)
	}
	// Downstream rates drop 4x: the window node's input rate is rate/4.
	var baseWin, gotWin *core.PlanNode
	for i := range base.Nodes {
		if base.Nodes[i].Kind == core.KindWindow {
			baseWin = &base.Nodes[i]
		}
	}
	for i := range got.Nodes {
		if got.Nodes[i].Kind == core.KindWindow {
			gotWin = &got.Nodes[i]
		}
	}
	if gotWin.Rate != baseWin.Rate/4 {
		t.Fatalf("window rate %g, want %g", gotWin.Rate, baseWin.Rate/4)
	}
	bf, bi, _ := Demand(base, interp.Float64)
	gf, gi, _ := Demand(got, interp.Float64)
	if db := hub.MSP430(); db.Cycles(gf, gi) >= db.Cycles(bf, bi) {
		t.Fatalf("decimation did not reduce cycle demand: (%g,%g) vs (%g,%g)", gf, gi, bf, bi)
	}
}

func TestReparameterizeWindowScale(t *testing.T) {
	cat := core.DefaultCatalog()
	base := testPlan(t)
	got, err := Reparameterize(cat, base, Knobs{Decimation: 1, WindowScale: 2, ThresholdFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Nodes {
		if got.Nodes[i].Kind == core.KindWindow {
			if size := got.Nodes[i].Params.Int("size"); size != 100 {
				t.Fatalf("scaled window size = %d, want 100", size)
			}
			if step := got.Nodes[i].Params.Int("step"); step != 50 {
				t.Fatalf("scaled window step = %d, want 50", step)
			}
		}
	}
}

func TestReparameterizeThreshold(t *testing.T) {
	cat := core.DefaultCatalog()
	base := testPlan(t)
	got, err := Reparameterize(cat, base, Knobs{Decimation: 1, WindowScale: 1, ThresholdFactor: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	last := got.Nodes[len(got.Nodes)-1]
	if min := last.Params.Float("min"); math.Abs(min-0.6) > 1e-12 {
		t.Fatalf("tightened min = %g, want 0.6", min)
	}
	if min := base.Nodes[len(base.Nodes)-1].Params.Float("min"); min != 0.5 {
		t.Fatalf("base plan mutated: min = %g, want 0.5", min)
	}

	// An and-terminated plan has no final threshold to tighten, and the
	// branch thresholds feeding the aggregator are left alone.
	p := core.NewPipeline("and")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)),
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("range")).Add(core.MinThreshold(1)),
	)
	p.Add(core.And())
	andPlan, err := p.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Reparameterize(cat, andPlan, Knobs{Decimation: 1, WindowScale: 1, ThresholdFactor: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range got.Nodes {
		if n.Kind == core.KindMinThreshold && n.Params.Float("min") != 1 {
			t.Fatalf("and-terminated plan: branch threshold moved to %g", n.Params.Float("min"))
		}
	}
}

func TestReparameterizeRejectsBadKnobs(t *testing.T) {
	cat := core.DefaultCatalog()
	base := testPlan(t)
	for _, k := range []Knobs{
		{Decimation: 0, WindowScale: 1},
		{Decimation: 1, WindowScale: 0},
		{Decimation: 1, WindowScale: 1, ThresholdFactor: 0.5},
	} {
		if _, err := Reparameterize(cat, base, k); err == nil {
			t.Errorf("knobs %+v accepted", k)
		}
	}
	if _, err := Reparameterize(cat, nil, Knobs{Decimation: 1, WindowScale: 1}); err == nil {
		t.Error("nil base accepted")
	}
}

func TestTightenFinal(t *testing.T) {
	p := core.Params{"min": core.Number(2)}
	if !TightenFinal(core.KindMinThreshold, p, 1.1) {
		t.Fatal("min threshold not tightened")
	}
	if got := p.Float("min"); math.Abs(got-2.2) > 1e-12 {
		t.Fatalf("min = %g, want 2.2", got)
	}

	p = core.Params{"max": core.Number(-4)}
	TightenFinal(core.KindMaxThreshold, p, 1.5)
	if got := p.Float("max"); math.Abs(got-(-6)) > 1e-12 {
		t.Fatalf("max = %g, want -6 (stricter for a negative ceiling)", got)
	}
	p = core.Params{"max": core.Number(-3)}
	TightenFinal(core.KindMaxThreshold, p, 1.1)
	if got := p.Float("max"); math.Abs(got-(-3.3)) > 1e-12 {
		t.Fatalf("max = %g, want -3.3", got)
	}
	// A negative minimum also tightens upward.
	p = core.Params{"min": core.Number(-5)}
	TightenFinal(core.KindMinThreshold, p, 1.1)
	if got := p.Float("min"); math.Abs(got-(-4.5)) > 1e-12 {
		t.Fatalf("min = %g, want -4.5 (stricter for a negative floor)", got)
	}

	p = core.Params{"min": core.Number(1), "max": core.Number(3)}
	TightenFinal(core.KindBandThreshold, p, 1.4)
	lo, hi := p.Float("min"), p.Float("max")
	if math.Abs(lo-1.2) > 1e-12 || math.Abs(hi-2.8) > 1e-12 {
		t.Fatalf("band = [%g,%g], want [1.2,2.8]", lo, hi)
	}

	// A band too narrow to shrink, factor 1, and untunable kinds: no-ops.
	p = core.Params{"min": core.Number(1), "max": core.Number(1)}
	if TightenFinal(core.KindBandThreshold, p, 100) {
		t.Error("degenerate band reported tightened")
	}
	if TightenFinal(core.KindMinThreshold, core.Params{"min": core.Number(1)}, 1) {
		t.Error("factor 1 reported tightened")
	}
	if TightenFinal(core.KindStat, core.Params{}, 2) {
		t.Error("untunable kind reported tightened")
	}
	// A zero threshold has no scale reference: left alone.
	p = core.Params{"min": core.Number(0)}
	TightenFinal(core.KindMinThreshold, p, 2)
	if got := p.Float("min"); got != 0 {
		t.Fatalf("zero min moved to %g", got)
	}
}

func TestDemandQ15Rebilling(t *testing.T) {
	plan := testPlan(t)
	ff, fi, fmem := Demand(plan, interp.Float64)
	qf, qi, qmem := Demand(plan, interp.Q15)
	if fmem != qmem {
		t.Fatalf("memory changed with precision: %d != %d", qmem, fmem)
	}
	if qf >= ff {
		t.Fatalf("Q15 float demand %g not below float64's %g", qf, ff)
	}
	if qi <= fi {
		t.Fatalf("Q15 int demand %g not above float64's %g", qi, fi)
	}
	// Total op count is conserved: float work moves to the int column.
	if math.Abs((ff+fi)-(qf+qi)) > 1e-9 {
		t.Fatalf("ops not conserved: %g != %g", ff+fi, qf+qi)
	}
	// On the FPU-less MSP430 the rebilling is a large cycle win.
	if d := hub.MSP430(); d.Cycles(qf, qi) >= d.Cycles(ff, fi) {
		t.Fatal("Q15 did not reduce MSP430 cycles")
	}
}

func TestFitsBudget(t *testing.T) {
	plan := testPlan(t)
	if !FitsBudget(sched.BudgetFor(hub.MSP430()), plan, interp.Float64) {
		t.Fatal("accel condition does not fit the MSP430")
	}
	tiny := hub.MSP430()
	tiny.ClockHz, tiny.RAMBytes = 2, 1
	if FitsBudget(tiny, plan, interp.Float64) {
		t.Fatal("plan fits a 1-cycle budget")
	}
}
