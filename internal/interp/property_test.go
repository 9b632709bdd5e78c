package interp

import (
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/testutil"
)

// TestRandomPipelinesExecuteSafely drives generated wake-up conditions
// with random sensor data: the interpreter must never panic, never emit
// NaN wake values from finite input, and every wake must satisfy the final
// admission-control stage it came from.
func TestRandomPipelinesExecuteSafely(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		m, err := New(plan)
		if err != nil {
			t.Fatalf("pipeline %d: machine: %v", i, err)
		}
		final := plan.Nodes[len(plan.Nodes)-1]
		for s := 0; s < 500; s++ {
			for _, ch := range plan.Channels {
				for _, w := range m.PushSample(ch, rng.NormFloat64()*10) {
					if math.IsNaN(w.Value) {
						t.Fatalf("pipeline %d: NaN wake value", i)
					}
					checkAdmitted(t, i, final, w.Value)
				}
			}
		}
		work := m.Work()
		if work.FloatOps < 0 || work.IntOps < 0 {
			t.Fatalf("pipeline %d: negative work %+v", i, work)
		}
	}
}

// checkAdmitted verifies a wake value against the final threshold's
// parameters.
func checkAdmitted(t *testing.T, i int, final core.PlanNode, v float64) {
	t.Helper()
	const eps = 1e-9
	switch final.Kind {
	case core.KindMinThreshold:
		if v < final.Params.Float("min")-eps {
			t.Fatalf("pipeline %d: wake value %g below min %g", i, v, final.Params.Float("min"))
		}
	case core.KindMaxThreshold:
		if v > final.Params.Float("max")+eps {
			t.Fatalf("pipeline %d: wake value %g above max %g", i, v, final.Params.Float("max"))
		}
	case core.KindBandThreshold:
		if v < final.Params.Float("min")-eps || v > final.Params.Float("max")+eps {
			t.Fatalf("pipeline %d: wake value %g outside band [%g, %g]",
				i, v, final.Params.Float("min"), final.Params.Float("max"))
		}
	}
}

// TestRandomMergedConsistency merges random plan pairs and checks wake
// equivalence against separate machines over identical input.
func TestRandomMergedConsistency(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		pa, err := testutil.RandomPipeline(rng).Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := testutil.RandomPipeline(rng).Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := newSignatureMerged(Float64, pa, pb)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		ma, err := New(pa)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := New(pb)
		if err != nil {
			t.Fatal(err)
		}
		chans := map[core.SensorChannel]bool{}
		for _, ch := range pa.Channels {
			chans[ch] = true
		}
		for _, ch := range pb.Channels {
			chans[ch] = true
		}
		for s := 0; s < 400; s++ {
			for ch := range chans {
				v := rng.NormFloat64() * 8
				var wantA, wantB int
				for _, pc := range pa.Channels {
					if pc == ch {
						wantA = len(ma.PushSample(ch, v))
					}
				}
				for _, pc := range pb.Channels {
					if pc == ch {
						wantB = len(mb.PushSample(ch, v))
					}
				}
				var gotA, gotB int
				for _, w := range merged.PushSample(ch, v) {
					if w.Plan == 0 {
						gotA++
					} else {
						gotB++
					}
				}
				if gotA != wantA || gotB != wantB {
					t.Fatalf("pair %d sample %d on %s: merged (%d,%d) vs separate (%d,%d)",
						i, s, ch, gotA, gotB, wantA, wantB)
				}
			}
		}
	}
}
