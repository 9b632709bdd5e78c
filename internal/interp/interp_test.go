package interp

import (
	"math"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/ir"
)

func mustPlan(t *testing.T, p *core.Pipeline) *core.Plan {
	t.Helper()
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mustMachine(t *testing.T, p *core.Pipeline) *Machine {
	t.Helper()
	m, err := New(mustPlan(t, p))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSignificantMotionFiresOnMotion(t *testing.T) {
	p := core.NewPipeline("sig-motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(15))
	m := mustMachine(t, p)

	// Quiescent: gravity only (z = 9.81). Magnitude ~9.81 < 15.
	wakes := 0
	for i := 0; i < 100; i++ {
		wakes += len(m.PushSample(core.AccelX, 0))
		wakes += len(m.PushSample(core.AccelY, 0))
		wakes += len(m.PushSample(core.AccelZ, 9.81))
	}
	if wakes != 0 {
		t.Fatalf("idle produced %d wakes", wakes)
	}

	// Violent motion on all axes: magnitude ~ sqrt(3*12^2) = 20.8 > 15.
	for i := 0; i < 100; i++ {
		wakes += len(m.PushSample(core.AccelX, 12))
		wakes += len(m.PushSample(core.AccelY, 12))
		wakes += len(m.PushSample(core.AccelZ, 12))
	}
	if wakes == 0 {
		t.Fatal("motion produced no wakes")
	}
}

func TestMachineFromParsedIR(t *testing.T) {
	text := `# pipeline: demo
ACC_X -> movingAvg(id=1, params={4});
1 -> minThreshold(id=2, params={5, 1});
2 -> OUT;
`
	plan, err := ir.ParseAndBind(text, core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Three samples: warming up, no output regardless of value.
	for i := 0; i < 3; i++ {
		if w := m.PushSample(core.AccelX, 100); len(w) != 0 {
			t.Fatal("wake during moving-average warmup")
		}
	}
	w := m.PushSample(core.AccelX, 100)
	if len(w) != 1 {
		t.Fatalf("expected wake, got %v", w)
	}
	if w[0].NodeID != 2 || w[0].Value != 100 {
		t.Errorf("wake = %+v", w[0])
	}
}

func TestWindowStatPipeline(t *testing.T) {
	p := core.NewPipeline("winstat")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(2.5)))
	m := mustMachine(t, p)

	feed := func(vals ...float64) int {
		n := 0
		for _, v := range vals {
			n += len(m.PushSample(core.AccelX, v))
		}
		return n
	}
	if n := feed(1, 1, 1, 1); n != 0 { // mean 1 < 2.5
		t.Fatalf("low window fired %d times", n)
	}
	if n := feed(3, 3, 3, 3); n != 1 { // mean 3 >= 2.5
		t.Fatalf("high window fired %d times, want 1", n)
	}
	if n := feed(3, 3); n != 0 { // partial window
		t.Fatalf("partial window fired %d times", n)
	}
}

func TestSustainedThreshold(t *testing.T) {
	p := core.NewPipeline("sustain")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(2, 0, "")).
		Add(core.Stat("mean")).
		Add(core.MinThresholdSustained(5, 3)))
	m := mustMachine(t, p)
	fire := 0
	feedWindow := func(v float64) {
		fire += len(m.PushSample(core.AccelX, v))
		fire += len(m.PushSample(core.AccelX, v))
	}
	feedWindow(10) // run 1
	feedWindow(10) // run 2
	if fire != 0 {
		t.Fatalf("fired before sustain count reached: %d", fire)
	}
	feedWindow(10) // run 3 -> fires
	if fire != 1 {
		t.Fatalf("fire count = %d, want 1", fire)
	}
	feedWindow(10) // run 4 -> still above, fires again
	if fire != 2 {
		t.Fatalf("fire count = %d, want 2", fire)
	}
	feedWindow(0)  // breaks the run
	feedWindow(10) // run 1 again, no fire
	if fire != 2 {
		t.Fatalf("fire count after reset = %d, want 2", fire)
	}
}

func TestAndJoinsOnSameWindow(t *testing.T) {
	// Two branches over the same channel with identical windowing: "and"
	// must fire only when both thresholds admit the same window.
	p := core.NewPipeline("and")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)),
		core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("range")).Add(core.MinThreshold(2)),
	)
	p.Add(core.And())
	m := mustMachine(t, p)
	feedWindow := func(vals ...float64) int {
		n := 0
		for _, v := range vals {
			n += len(m.PushSample(core.Mic, v))
		}
		return n
	}
	// Window 1: mean 2 (pass), range 0 (fail) -> no fire.
	if n := feedWindow(2, 2, 2, 2); n != 0 {
		t.Fatalf("window 1 fired %d", n)
	}
	// Window 2: mean 0.25 (fail), range 4 (pass) -> no fire.
	if n := feedWindow(-2, 2, 1, 0); n != 0 {
		t.Fatalf("window 2 fired %d", n)
	}
	// Window 3: mean 2.5 (pass), range 3 (pass) -> fire.
	if n := feedWindow(1, 4, 2, 3); n != 1 {
		t.Fatalf("window 3 fired %d, want 1", n)
	}
}

func TestRatioGuardsDivisionByZero(t *testing.T) {
	p := core.NewPipeline("ratio")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(2, 0, "")).Add(core.Stat("max")),
		core.NewBranch(core.Mic).Add(core.Window(2, 0, "")).Add(core.Stat("min")),
	)
	p.Add(core.Ratio())
	p.Add(core.MinThreshold(-1e18))
	m := mustMachine(t, p)
	n := 0
	n += len(m.PushSample(core.Mic, 0))
	n += len(m.PushSample(core.Mic, 0)) // max 0 / min 0 -> suppressed
	if n != 0 {
		t.Fatalf("zero denominator produced output")
	}
	n += len(m.PushSample(core.Mic, 6))
	n += len(m.PushSample(core.Mic, 2)) // 6/2 = 3
	if n != 1 {
		t.Fatalf("ratio fired %d, want 1", n)
	}
}

func TestFFTChainDetectsTone(t *testing.T) {
	p := core.NewPipeline("tone")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(256, 0, "")).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThreshold(4)))
	m := mustMachine(t, p)

	// Broadband-ish square-ish noise outside the band: no fire.
	fires := 0
	for i := 0; i < 256; i++ {
		v := math.Sin(2*math.Pi*100*float64(i)/core.AudioRateHz) * 0.5
		fires += len(m.PushSample(core.Mic, v))
	}
	if fires != 0 {
		t.Fatalf("out-of-band tone fired %d", fires)
	}
	// Pure 1 kHz tone inside [850, 1800]: fires.
	for i := 0; i < 256; i++ {
		v := math.Sin(2 * math.Pi * 1000 * float64(i) / core.AudioRateHz)
		fires += len(m.PushSample(core.Mic, v))
	}
	if fires != 1 {
		t.Fatalf("in-band tone fired %d, want 1", fires)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	p := core.NewPipeline("roundtrip")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(8, 0, "")).
		Add(core.FFT()).
		Add(core.IFFT()).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(-1e18)))
	m := mustMachine(t, p)
	var got float64
	fired := false
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, v := range vals {
		for _, w := range m.PushSample(core.Mic, v) {
			got, fired = w.Value, true
		}
	}
	if !fired {
		t.Fatal("round-trip pipeline did not emit")
	}
	if math.Abs(got-4.5) > 1e-9 {
		t.Errorf("mean after FFT+IFFT = %g, want 4.5", got)
	}
}

func TestHighPassBlockPipeline(t *testing.T) {
	p := core.NewPipeline("hp")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(750, 256)).
		Add(core.Stat("rms")).
		Add(core.MinThreshold(0.1)))
	m := mustMachine(t, p)
	fires := 0
	// 100 Hz tone: removed by the 750 Hz high-pass, RMS ~ 0.
	for i := 0; i < 256; i++ {
		fires += len(m.PushSample(core.Mic, math.Sin(2*math.Pi*100*float64(i)/core.AudioRateHz)))
	}
	if fires != 0 {
		t.Fatalf("low tone passed the high-pass: %d fires", fires)
	}
	// 1500 Hz tone: passes.
	for i := 0; i < 256; i++ {
		fires += len(m.PushSample(core.Mic, math.Sin(2*math.Pi*1500*float64(i)/core.AudioRateHz)))
	}
	if fires != 1 {
		t.Fatalf("high tone fires = %d, want 1", fires)
	}
}

func TestDeltaAndAbs(t *testing.T) {
	p := core.NewPipeline("delta")
	p.AddBranch(core.NewBranch(core.AccelZ).
		Add(core.Delta()).
		Add(core.Abs()).
		Add(core.MinThreshold(2)))
	m := mustMachine(t, p)
	n := 0
	n += len(m.PushSample(core.AccelZ, 9.8)) // primes delta, no output
	n += len(m.PushSample(core.AccelZ, 9.9)) // |0.1| < 2
	if n != 0 {
		t.Fatalf("small delta fired %d", n)
	}
	n += len(m.PushSample(core.AccelZ, 6.5)) // |−3.4| >= 2
	if n != 1 {
		t.Fatalf("large delta fired %d, want 1", n)
	}
}

func TestWorkMeterAccumulates(t *testing.T) {
	p := core.NewPipeline("work")
	p.AddBranch(core.NewBranch(core.AccelX).Add(core.MovingAverage(4)).Add(core.MinThreshold(1e18)))
	m := mustMachine(t, p)
	if w := m.Work(); w.FloatOps != 0 || w.IntOps != 0 {
		t.Fatal("fresh machine has non-zero work")
	}
	for i := 0; i < 10; i++ {
		m.PushSample(core.AccelX, 1)
	}
	w := m.Work()
	if w.FloatOps <= 0 {
		t.Fatalf("work = %+v", w)
	}
}

func TestMachineReset(t *testing.T) {
	p := core.NewPipeline("reset")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(0)))
	m := mustMachine(t, p)
	m.PushSample(core.AccelX, 5)
	m.PushSample(core.AccelX, 5)
	m.Reset()
	// After reset the window must refill from scratch.
	n := 0
	n += len(m.PushSample(core.AccelX, 5))
	n += len(m.PushSample(core.AccelX, 5))
	if n != 0 {
		t.Fatal("window survived Reset")
	}
	n += len(m.PushSample(core.AccelX, 5))
	n += len(m.PushSample(core.AccelX, 5))
	if n != 1 {
		t.Fatalf("post-reset window fired %d, want 1", n)
	}
}

func TestZCRVariancePipelineDistinguishesSignals(t *testing.T) {
	p := core.NewPipeline("zcrvar")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(64, 0, "")).
		Add(core.ZCRVariance(4)).
		Add(core.MinThreshold(0.001)))
	m := mustMachine(t, p)
	fires := 0
	// Constant-frequency signal: sub-window ZCRs identical, variance ~ 0.
	for i := 0; i < 64; i++ {
		fires += len(m.PushSample(core.Mic, math.Sin(float64(i))))
	}
	if fires != 0 {
		t.Fatalf("uniform signal fired %d", fires)
	}
	// Varying-rate signal: first half slow, second half fast.
	for i := 0; i < 64; i++ {
		f := 50.0
		if i >= 32 {
			f = 800
		}
		fires += len(m.PushSample(core.Mic, math.Sin(2*math.Pi*f*float64(i)/core.AudioRateHz)))
	}
	if fires != 1 {
		t.Fatalf("modulated signal fired %d, want 1", fires)
	}
}

func TestDominantFreqMagNode(t *testing.T) {
	p := core.NewPipeline("dom")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(128, 0, "")).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.DominantFreqMag()).
		Add(core.MinThreshold(10)))
	m := mustMachine(t, p)
	fires := 0
	for i := 0; i < 128; i++ {
		fires += len(m.PushSample(core.Mic, math.Sin(2*math.Pi*500*float64(i)/core.AudioRateHz)))
	}
	// A unit sine of 128 samples has dominant magnitude ~ 64.
	if fires != 1 {
		t.Fatalf("dominant magnitude fired %d, want 1", fires)
	}
}

func TestEMAPipeline(t *testing.T) {
	p := core.NewPipeline("ema")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.ExpMovingAverage(0.5)).
		Add(core.MinThreshold(7)))
	m := mustMachine(t, p)
	n := len(m.PushSample(core.AccelX, 8)) // EMA = 8 >= 7
	if n != 1 {
		t.Fatalf("EMA fire = %d, want 1", n)
	}
	n = len(m.PushSample(core.AccelX, 0)) // EMA = 4 < 7
	if n != 0 {
		t.Fatalf("EMA fire = %d, want 0", n)
	}
}

func TestJoinPruneBoundsMemory(t *testing.T) {
	// Branch 1 admits every window; branch 2 admits none. Pending joins
	// must not grow without bound.
	p := core.NewPipeline("prune")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(2, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(-1e18)),
		core.NewBranch(core.Mic).Add(core.Window(2, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1e18)),
	)
	p.Add(core.And())
	plan := mustPlan(t, p)
	m, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		m.PushSample(core.Mic, float64(i))
	}
	// Find the join instance and check its pending slots.
	var join *joinInst
	for _, n := range m.nodes {
		if j, ok := n.inst.(*joinInst); ok {
			join = j
		}
	}
	if join == nil {
		t.Fatal("no join instance found")
	}
	// Port 1 never emits, so nothing is provably stale; but the pending
	// slots only hold entries from port 0. With one port never primed we
	// cannot prune -- this documents the worst case: entries accumulate
	// only for the emitting port. Tighten: once both ports have emitted,
	// stale entries vanish. Here we assert the pending count equals the
	// number of port-0 emissions (5000 windows), the documented bound.
	if join.pendingLen() != 5000 {
		t.Fatalf("pending = %d, want 5000 (one per emitted window)", join.pendingLen())
	}
}

func TestJoinPruneWithBothPortsEmitting(t *testing.T) {
	j := newJoinInst(2, func(vals []float64) (float64, bool) { return vals[0] + vals[1], true })
	// Port 0 emits seqs 0..9; port 1 only seq 9.
	for s := int64(0); s < 10; s++ {
		if _, ok := j.Push(0, Value{Seq: s, Scalar: 1}); ok {
			t.Fatal("join fired with one port")
		}
	}
	out, ok := j.Push(1, Value{Seq: 9, Scalar: 2})
	if !ok || out.Scalar != 3 || out.Seq != 9 {
		t.Fatalf("join = %+v, %v", out, ok)
	}
	// Seqs 0..8 are now provably stale.
	if j.pendingLen() != 0 {
		t.Fatalf("pending after prune = %d, want 0", j.pendingLen())
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	plan := mustPlan(t, core.NewPipeline("x").
		AddBranch(core.NewBranch(core.AccelX).Add(core.MovingAverage(2)).Add(core.MinThreshold(0))))
	plan.Nodes[0].Kind = "martian"
	if _, err := New(plan); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestStatFuncCoverage(t *testing.T) {
	for _, op := range core.StatOps {
		fn, err := statFunc(op)
		if err != nil {
			t.Errorf("statFunc(%s): %v", op, err)
			continue
		}
		if got := fn([]float64{1, 2, 3}); math.IsNaN(got) {
			t.Errorf("statFunc(%s) returned NaN", op)
		}
	}
	if _, err := statFunc("mode"); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestZCRVarianceEdgeCases(t *testing.T) {
	if _, ok := zcrVariance(make([]float64, 4), []float64{1, 2}, 4); ok {
		t.Error("window shorter than k should not produce")
	}
	if _, ok := zcrVariance(nil, []float64{1, 2, 3, 4}, 1); ok {
		t.Error("k < 2 should not produce")
	}
	v, ok := zcrVariance(make([]float64, 2), []float64{1, -1, 1, -1, 1, 1, 1, 1}, 2)
	if !ok || v <= 0 {
		t.Errorf("zcrVariance = (%g, %v), want positive", v, ok)
	}
}

func TestTonalityHelpers(t *testing.T) {
	if tonality([]float64{1, 2}, 0, 100, 100) != 0 {
		t.Error("short spectrum should yield 0")
	}
	if tonality(make([]float64, 16), 0, 2000, 4000) != 0 {
		t.Error("all-zero spectrum should yield 0")
	}
	// Length-4 spectrum: bins 1..2 are the non-mirrored half; the DC bin
	// (5) and the mirrored bin 3 are ignored.
	if dominantMag([]float64{5, 1, 2, 3}) != 2 {
		t.Error("dominantMag should ignore DC bin and scan only the first half")
	}
	// Verify dsp-level consistency: a pure tone's tonality via pipeline
	// helpers matches dsp.PeakToMeanRatio direction.
	n := 128
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / 4000)
	}
	spec, _ := dsp.FFTReal(sig)
	mags := dsp.Magnitudes(spec)
	if tonality(mags, 850, 1800, 4000) < 4 {
		t.Error("pure in-band tone should have high tonality")
	}
	if tonality(mags, 100, 200, 4000) != 0 {
		t.Error("out-of-band dominant should gate to 0")
	}
}
