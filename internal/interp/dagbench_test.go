package interp

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// dagBenchPlans builds n wake conditions with heavy interior sharing: every
// plan runs the same movingAvg → window → rms feature chain over the
// microphone and differs only in its admission cutoff. The DAG pass
// collapses the whole interior to one shared execution; the signature
// reference shares it too (it is a common prefix), so the pair benchmarks
// the two lowerings on the one engine, not different amounts of
// arithmetic.
func dagBenchPlans(tb testing.TB, n int) []*core.Plan {
	tb.Helper()
	cat := core.DefaultCatalog()
	plans := make([]*core.Plan, n)
	for i := range plans {
		p := core.NewPipeline("bench")
		b := core.NewBranch(core.Mic)
		b.Add(core.MovingAverage(8))
		b.Add(core.Window(64, 0, "hamming"))
		b.Add(core.Stat("rms"))
		p.AddBranch(b)
		p.Add(core.MinThreshold(0.5 + 0.1*float64(i)))
		plan, err := p.Validate(cat)
		if err != nil {
			tb.Fatal(err)
		}
		plan.Name = p.Name()
		plans[i] = plan
	}
	return plans
}

// BenchmarkDAGMerged compares the DAG-compiled shared plan against the
// signature-shared reference lowering on the block dispatch hot loop. Both must
// stay 0 allocs/op in steady state (enforced against docs/bench/baseline.txt
// by `make bench-check`).
func BenchmarkDAGMerged(b *testing.B) {
	const nApps = 6
	plans := dagBenchPlans(b, nApps)
	block := mergedWakeInput(256)

	b.Run("linear", func(b *testing.B) {
		m, err := newSignatureMerged(Float64, plans...)
		if err != nil {
			b.Fatal(err)
		}
		m.PushBlock(core.Mic, block) // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PushBlock(core.Mic, block)
		}
	})
	b.Run("dag", func(b *testing.B) {
		sp, err := ir.CompilePlans(core.DefaultCatalog(), ir.CompileOptions{}, plans...)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewShared(Float64, sp)
		if err != nil {
			b.Fatal(err)
		}
		m.PushBlock(core.Mic, block)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PushBlock(core.Mic, block)
		}
	})
}

// TestDAGMergedSteadyStateAllocs is the tier-1 twin of the benchmark: the
// block path must not allocate once its scratch is warm, whether the
// engine runs a DAG-shared plan set or a single plan, in either precision.
// Every input fires wakes inside the measured loop, so the wake records
// and the facades' result views are covered too.
func TestDAGMergedSteadyStateAllocs(t *testing.T) {
	plans := dagBenchPlans(t, 6)
	sp, err := ir.CompilePlans(core.DefaultCatalog(), ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	block := mergedWakeInput(256)
	for _, prec := range []Precision{Float64, Q15} {
		shared, err := NewShared(prec, sp)
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewPrecision(plans[0], prec)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			name string
			push func() int
		}{
			{"shared", func() int { return len(shared.PushBlock(core.Mic, block)) }},
			{"single-plan", func() int { return len(single.PushBlock(core.Mic, block)) }},
		} {
			for i := 0; i < 4; i++ {
				in.push()
			}
			wakes := 0
			if allocs := testing.AllocsPerRun(200, func() {
				wakes += in.push()
			}); allocs != 0 {
				t.Errorf("%s/%s: PushBlock allocates %.1f allocs/op in steady state, want 0", in.name, prec, allocs)
			}
			if wakes == 0 {
				t.Errorf("%s/%s: no wakes fired; the input does not exercise the wake path", in.name, prec)
			}
		}
	}
}
