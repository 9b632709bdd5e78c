package ir

import (
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/testutil"
)

// TestRandomPipelinesRoundTrip drives the full compiler stack with
// generated wake-up conditions: every valid pipeline must compile to IR,
// parse back, bind identically, and re-encode byte-for-byte (canonical
// form stability).
func TestRandomPipelinesRoundTrip(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(20260705))
	for i := 0; i < 300; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d (%s) failed validation: %v", i, p.Name(), err)
		}
		text := CompileToText(plan)
		bound, err := ParseAndBind(text, cat)
		if err != nil {
			t.Fatalf("pipeline %d: bind failed: %v\n%s", i, err, text)
		}
		text2 := CompileToText(bound)
		if text2 != text {
			t.Fatalf("pipeline %d: canonical form unstable:\n--- compiled\n%s--- rebound\n%s", i, text, text2)
		}
		if len(bound.Nodes) != len(plan.Nodes) {
			t.Fatalf("pipeline %d: node count changed: %d -> %d", i, len(plan.Nodes), len(bound.Nodes))
		}
		for j := range plan.Nodes {
			a, b := &plan.Nodes[j], &bound.Nodes[j]
			if a.Kind != b.Kind || a.Rate != b.Rate || a.OutRate != b.OutRate ||
				a.InLen != b.InLen || a.OutLen != b.OutLen || a.Memory != b.Memory ||
				a.Cost != b.Cost {
				t.Fatalf("pipeline %d node %d: resolution differs:\n%+v\n%+v", i, j+1, a, b)
			}
		}
	}
}

// TestRandomPipelinesCostModelSane checks cost-model invariants over the
// generated space: non-negative work and memory, positive rates, and
// output rates never exceeding input rates.
func TestRandomPipelinesCostModelSane(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		for _, n := range plan.Nodes {
			if n.Cost.FloatOps < 0 || n.Cost.IntOps < 0 {
				t.Fatalf("pipeline %d node %d: negative cost %+v", i, n.ID, n.Cost)
			}
			if n.Memory < 0 {
				t.Fatalf("pipeline %d node %d: negative memory %d", i, n.ID, n.Memory)
			}
			if n.Rate <= 0 {
				t.Fatalf("pipeline %d node %d: rate %g", i, n.ID, n.Rate)
			}
			if n.OutRate > n.Rate+1e-9 {
				t.Fatalf("pipeline %d node %d: out rate %g exceeds in rate %g", i, n.ID, n.OutRate, n.Rate)
			}
		}
		f, iOps, _ := planTotals(plan)
		if f < 0 || iOps < 0 {
			t.Fatalf("pipeline %d: negative totals", i)
		}
	}
}
