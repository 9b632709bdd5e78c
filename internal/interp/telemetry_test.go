package interp

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/telemetry"
)

// telemetryTestPipeline builds a three-axis significant-motion condition:
// enough stage variety (moving averages, an aggregator, a threshold) to
// exercise per-kind attribution.
func telemetryTestPipeline() *core.Pipeline {
	p := core.NewPipeline("sig-motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(15))
	return p
}

// feedMotion drives the machine through quiet and violent phases and
// returns the wake count.
func feedMotion(m *Machine, rounds int) int {
	wakes := 0
	for i := 0; i < rounds; i++ {
		wakes += len(m.PushSample(core.AccelX, 0))
		wakes += len(m.PushSample(core.AccelY, 0))
		wakes += len(m.PushSample(core.AccelZ, 9.81))
	}
	for i := 0; i < rounds; i++ {
		wakes += len(m.PushSample(core.AccelX, 12))
		wakes += len(m.PushSample(core.AccelY, 12))
		wakes += len(m.PushSample(core.AccelZ, 12))
	}
	return wakes
}

// TestProfileAttributionMatchesWorkMeter: the per-stage profile must
// account for exactly the work the machine's own meter observed — the
// profile is a decomposition of Work(), not a second estimate.
func TestProfileAttributionMatchesWorkMeter(t *testing.T) {
	m := mustMachine(t, telemetryTestPipeline())
	prof := telemetry.NewInterpProfile()
	m.SetProfile(prof)

	wakes := feedMotion(m, 100)
	if wakes == 0 {
		t.Fatal("expected wakes from violent motion")
	}

	f, iOps := prof.TotalOps()
	w := m.Work()
	if f != w.FloatOps || iOps != w.IntOps {
		t.Fatalf("profile ops (%g float, %g int) != work meter (%g float, %g int)",
			f, iOps, w.FloatOps, w.IntOps)
	}

	stages := prof.Stages()
	if len(stages) == 0 {
		t.Fatal("profile recorded no stages")
	}
	var inv, emit int64
	kinds := make(map[string]bool)
	for _, s := range stages {
		if s.Invocations == 0 {
			t.Errorf("stage %q attached but never invoked", s.Kind)
		}
		if s.Emissions > s.Invocations {
			t.Errorf("stage %q emitted %d times in %d invocations", s.Kind, s.Emissions, s.Invocations)
		}
		inv += s.Invocations
		emit += s.Emissions
		kinds[s.Kind] = true
	}
	for _, want := range []string{string(core.KindMovingAvg), string(core.KindVectorMagnitude), string(core.KindMinThreshold)} {
		if !kinds[want] {
			t.Errorf("profile missing stage kind %q (have %v)", want, kinds)
		}
	}
	if inv < int64(wakes) || emit < int64(wakes) {
		t.Errorf("stage totals (inv=%d emit=%d) inconsistent with %d wakes", inv, emit, wakes)
	}
}

// TestDetachedProfileStopsRecording: SetProfile(nil) must fully detach.
func TestDetachedProfileStopsRecording(t *testing.T) {
	m := mustMachine(t, telemetryTestPipeline())
	prof := telemetry.NewInterpProfile()
	m.SetProfile(prof)
	feedMotion(m, 10)
	f1, i1 := prof.TotalOps()
	m.SetProfile(nil)
	feedMotion(m, 10)
	f2, i2 := prof.TotalOps()
	if f1 != f2 || i1 != i2 {
		t.Fatalf("detached profile still recording: (%g,%g) -> (%g,%g)", f1, i1, f2, i2)
	}
}

// TestInstrumentedPushSampleAllocs: the instrumented hot path must stay at
// 0 allocs/op with a live profile attached, and equally with none.
func TestInstrumentedPushSampleAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile *telemetry.InterpProfile
	}{
		{"disabled", nil},
		{"enabled", telemetry.NewInterpProfile()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMachine(t, telemetryTestPipeline())
			m.SetProfile(tc.profile)
			// Warm up: first wake grows the wake slice, first sample seeds
			// the per-channel sequence map.
			feedMotion(m, 20)
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				m.PushSample(core.AccelX, 12)
				m.PushSample(core.AccelY, 12)
				m.PushSample(core.AccelZ, 12)
				i++
			})
			if allocs != 0 {
				t.Errorf("PushSample (%s telemetry) allocates %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkPushSampleInstrumented is the acceptance benchmark: the
// interpreter hot path with a live telemetry profile attached must report
// 0 allocs/op (run via `make bench-telemetry`).
func BenchmarkPushSampleInstrumented(b *testing.B) {
	plan, err := telemetryTestPipeline().Validate(core.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(plan)
	if err != nil {
		b.Fatal(err)
	}
	m.SetProfile(telemetry.NewInterpProfile())
	feedMotion(m, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PushSample(core.AccelX, 12)
		m.PushSample(core.AccelY, 12)
		m.PushSample(core.AccelZ, 12)
	}
}

// BenchmarkPushSampleUninstrumented is the baseline for the benchmark
// above: no profile attached.
func BenchmarkPushSampleUninstrumented(b *testing.B) {
	plan, err := telemetryTestPipeline().Validate(core.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(plan)
	if err != nil {
		b.Fatal(err)
	}
	feedMotion(m, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PushSample(core.AccelX, 12)
		m.PushSample(core.AccelY, 12)
		m.PushSample(core.AccelZ, 12)
	}
}

// mergedWakeInput is a deterministic sample sequence with alternating calm
// and loud stretches, so both thresholds in twoWindowPlans fire on some
// windows and not others.
func mergedWakeInput(n int) []float64 {
	out := make([]float64, n)
	// xorshift-style deterministic generator; amplitude steps up every 32
	// samples so windows land on both sides of each plan's threshold.
	state := uint64(0x51DE)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		amp := float64((i/32)%4) * 1.5
		out[i] = amp * (float64(state%1000)/1000 - 0.3)
	}
	return out
}

// TestMergedWakeAttributionMatchesSolo: running mixed plans that share a
// common prefix on one Merged machine must produce TaggedWake events whose
// per-plan counts — and values, in order — match running each plan on its
// own interpreter. Sharing is an optimization, never a semantic change.
func TestMergedWakeAttributionMatchesSolo(t *testing.T) {
	pa, pb := twoWindowPlans(t)

	merged, err := newSignatureMerged(Float64, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.SharedNodes() == 0 {
		t.Fatal("plans share a common prefix but merged machine deduplicated nothing")
	}
	prof := telemetry.NewInterpProfile()
	merged.SetProfile(prof)

	soloA, err := New(pa)
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := New(pb)
	if err != nil {
		t.Fatal(err)
	}

	samples := mergedWakeInput(4096)
	var mergedWakes [2][]WakeEvent
	var soloWakes [2][]WakeEvent
	for _, s := range samples {
		for _, tw := range merged.PushSample(core.Mic, s) {
			if tw.Plan < 0 || tw.Plan > 1 {
				t.Fatalf("TaggedWake with out-of-range plan %d", tw.Plan)
			}
			mergedWakes[tw.Plan] = append(mergedWakes[tw.Plan], tw.WakeEvent)
		}
		soloWakes[0] = append(soloWakes[0], soloA.PushSample(core.Mic, s)...)
		soloWakes[1] = append(soloWakes[1], soloB.PushSample(core.Mic, s)...)
	}

	for plan := 0; plan < 2; plan++ {
		if len(mergedWakes[plan]) != len(soloWakes[plan]) {
			t.Fatalf("plan %d: merged produced %d wakes, solo produced %d",
				plan, len(mergedWakes[plan]), len(soloWakes[plan]))
		}
		if len(mergedWakes[plan]) == 0 {
			t.Errorf("plan %d never woke; input does not exercise attribution", plan)
		}
		for i := range mergedWakes[plan] {
			mw, sw := mergedWakes[plan][i], soloWakes[plan][i]
			if mw.Value != sw.Value || mw.Seq != sw.Seq {
				t.Fatalf("plan %d wake %d: merged {val=%g seq=%d} != solo {val=%g seq=%d}",
					plan, i, mw.Value, mw.Seq, sw.Value, sw.Seq)
			}
		}
	}

	// The merged profile counts shared work once: total ops must equal the
	// merged work meter, which is strictly less than the two solo meters.
	f, iOps := prof.TotalOps()
	mw := merged.Work()
	if f != mw.FloatOps || iOps != mw.IntOps {
		t.Fatalf("merged profile ops (%g,%g) != merged work meter (%g,%g)",
			f, iOps, mw.FloatOps, mw.IntOps)
	}
	soloTotal := soloA.Work().Add(soloB.Work())
	if !(mw.FloatOps < soloTotal.FloatOps) && !(mw.IntOps < soloTotal.IntOps) {
		t.Errorf("merged work %+v not less than solo total %+v despite shared prefix", mw, soloTotal)
	}
}
