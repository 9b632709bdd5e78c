package interp

import (
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/ir"
	"sidewinder/internal/testutil"
)

// Reset must be equivalent to a fresh machine: PR 5 found a BlockFilter
// whose Reset left delay-line state behind, which only bit-diverged after
// the first reuse. With the DAG pass a reset instance can now be shared
// by several apps, so stale state would corrupt every resident condition
// at once. These tests replay the same signal on a fresh machine and on a
// used-then-Reset machine and require bit-identical wake streams, for
// single plans and for signature-shared and DAG-shared plan sets, in both
// precisions.

// resetSignal is deliberately biased positive so thresholds fire and
// sustain runs, joins and window fills all carry state into the reset.
func resetSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()*4 + 2*math.Sin(float64(i)/11)
	}
	return out
}

func TestResetEquivalentToFreshMachine(t *testing.T) {
	cat := core.DefaultCatalog()
	sig := resetSignal(3000, 1)
	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		compiled, _, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range []Precision{Float64, Q15} {
			for _, tc := range []struct {
				name string
				plan *core.Plan
			}{{"linear", plan}, {"dag", compiled}} {
				label := app.Name + "/" + prec.String() + "/" + tc.name

				fresh, err := NewPrecision(tc.plan, prec)
				if err != nil {
					t.Fatal(err)
				}
				used, err := NewPrecision(tc.plan, prec)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the used machine with a different prefix, then reset.
				for _, ch := range tc.plan.Channels {
					used.PushBlock(ch, sig[:1700])
				}
				used.Reset()

				var want, got []dagWake
				for i, v := range sig {
					for _, ch := range tc.plan.Channels {
						for _, w := range fresh.PushSample(ch, v) {
							want = append(want, dagWake{i, math.Float64bits(w.Value), w.Seq})
						}
						for _, w := range used.PushSample(ch, v) {
							got = append(got, dagWake{i, math.Float64bits(w.Value), w.Seq})
						}
					}
				}
				compareDagWakes(t, label, want, got)
			}
		}
	}
}

func TestResetEquivalentToFreshShared(t *testing.T) {
	cat := core.DefaultCatalog()
	var plans []*core.Plan
	for _, app := range apps.AudioApps() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		plan.Name = app.Name
		plans = append(plans, plan)
	}
	sp, err := ir.CompilePlans(cat, ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	sig := resetSignal(6000, 2)
	for _, prec := range []Precision{Float64, Q15} {
		for _, mk := range []struct {
			name  string
			build func() (*Merged, error)
		}{
			{"signature", func() (*Merged, error) { return newSignatureMerged(prec, plans...) }},
			{"shared", func() (*Merged, error) { return NewShared(prec, sp) }},
		} {
			fresh, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			used, err := mk.build()
			if err != nil {
				t.Fatal(err)
			}
			used.PushBlock(core.Mic, sig[:3100])
			used.Reset()

			label := prec.String() + "/" + mk.name
			var want, got []taggedDagWake
			for i, v := range sig {
				for _, w := range fresh.PushSample(core.Mic, v) {
					want = append(want, taggedDagWake{i, w.Plan, math.Float64bits(w.Value), w.Seq})
				}
				for _, w := range used.PushSample(core.Mic, v) {
					got = append(got, taggedDagWake{i, w.Plan, math.Float64bits(w.Value), w.Seq})
				}
			}
			if len(want) != len(got) {
				t.Fatalf("%s: wake count %d vs %d after reset", label, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: wake %d: fresh %+v, reset %+v", label, i, want[i], got[i])
				}
			}
		}
	}
}

// TestResetEquivalenceRandomPipelines broadens the reset pin to the
// generated space, where join slot recycling, sustain runs and filter
// delay lines combine in ways the catalog apps don't reach.
func TestResetEquivalenceRandomPipelines(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 60; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		sig := resetSignal(900, int64(i))
		ch := plan.Channels[0]

		fresh, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		used, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		used.PushBlock(ch, sig[:533])
		used.Reset()

		var want, got []dagWake
		for s, v := range sig {
			for _, w := range fresh.PushSample(ch, v) {
				want = append(want, dagWake{s, math.Float64bits(w.Value), w.Seq})
			}
			for _, w := range used.PushSample(ch, v) {
				got = append(got, dagWake{s, math.Float64bits(w.Value), w.Seq})
			}
		}
		compareDagWakes(t, p.Name(), want, got)
	}
}
