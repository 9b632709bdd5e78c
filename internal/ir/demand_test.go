package ir

import (
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/testutil"
)

// Property tests for DAG demand billing over generated pipeline pairs.
// PR 4 pinned shared-prefix billing; the DAG generalizes sharing to any
// interior subgraph, so these pin the stronger conservation law: merged
// demand equals the sum of solo demands minus exactly the demand of the
// shared keys — nothing double-billed, nothing silently dropped.

const demandEps = 1e-9

func randomPlans(t *testing.T, rng *rand.Rand, n int) []*core.Plan {
	t.Helper()
	cat := core.DefaultCatalog()
	plans := make([]*core.Plan, n)
	for i := range plans {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		plans[i] = plan
	}
	return plans
}

// TestDemandConservation is the ledger law: for any pair of plans,
// solo(A) + solo(B) - merged(A,B) must equal exactly the demand of the
// keys the two plans share — i.e. every shared subgraph is billed once
// and only once, to 1e-9.
func TestDemandConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	opts := CompileOptions{}
	sawSharing := false
	for i := 0; i < 200; i++ {
		plans := randomPlans(t, rng, 2)
		a, b := plans[0], plans[1]

		fa, ia, ma := Demand(opts, a)
		fb, ib, mb := Demand(opts, b)
		fm, im, mm := Demand(opts, a, b)

		// Merged never exceeds the naive sum, and never undercuts the
		// larger solo (executing B alongside A cannot make A cheaper).
		if fm > fa+fb+demandEps || im > ia+ib+demandEps || mm > ma+mb {
			t.Fatalf("pair %d: merged demand exceeds sum: %g/%g/%d vs %g/%g/%d",
				i, fm, im, mm, fa+fb, ia+ib, ma+mb)
		}
		if fm < math.Max(fa, fb)-demandEps || mm < ma || mm < mb {
			t.Fatalf("pair %d: merged demand below a solo demand", i)
		}

		// Exact conservation: the overlap equals the demand of the keys
		// both solo analyses contain.
		bKeys := make(map[string]bool)
		for _, nd := range AnalyzePlan(opts, b) {
			bKeys[nd.Key] = true
		}
		var fs, is float64
		var ms int
		shared := false
		for _, nd := range AnalyzePlan(opts, a) {
			if bKeys[nd.Key] {
				shared = true
				fs += nd.FloatOpsPerSec
				is += nd.IntOpsPerSec
				ms += nd.MemoryBytes
			}
		}
		if shared {
			sawSharing = true
		}
		if math.Abs((fa+fb-fm)-fs) > demandEps || math.Abs((ia+ib-im)-is) > demandEps || (ma+mb-mm) != ms {
			t.Fatalf("pair %d: conservation violated: overlap %g/%g/%d, shared-key demand %g/%g/%d",
				i, fa+fb-fm, ia+ib-im, ma+mb-mm, fs, is, ms)
		}
	}
	if !sawSharing {
		t.Fatal("no generated pair shared a subgraph: the conservation law was never exercised")
	}
}

// planTotals is the naive bill the NoOpt demand must reproduce: every
// node's cost × rate summed per plan, then across plans.
func planTotals(plans ...*core.Plan) (floatOps, intOps float64, memory int) {
	for _, p := range plans {
		var pf, pi float64
		for _, n := range p.Nodes {
			pf += n.Cost.FloatOps * n.Rate
			pi += n.Cost.IntOps * n.Rate
			memory += n.Memory
		}
		floatOps += pf
		intOps += pi
	}
	return floatOps, intOps, memory
}

// TestNoOptDemandEqualsPlanTotals pins the ablation anchor: with every
// rewrite disabled, Demand is bit for bit the naive per-plan sum, and the
// direct sum it takes under NoOpt agrees bit for bit with walking each
// plan's graph (AnalyzePlan) — so skipping the graph changes no price.
func TestNoOptDemandEqualsPlanTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 50; i++ {
		plans := randomPlans(t, rng, 1+rng.Intn(3))
		wf, wi, wm := planTotals(plans...)
		var af, ai float64
		var am int
		for _, p := range plans {
			var pf, pi float64
			for _, nd := range AnalyzePlan(NoOpt(), p) {
				pf += nd.FloatOpsPerSec
				pi += nd.IntOpsPerSec
				am += nd.MemoryBytes
			}
			af += pf
			ai += pi
		}
		gf, gi, gm := Demand(NoOpt(), plans...)
		if gf != wf || gi != wi || gm != wm {
			t.Fatalf("set %d: NoOpt demand %g/%g/%d, naive totals %g/%g/%d",
				i, gf, gi, gm, wf, wi, wm)
		}
		if gf != af || gi != ai || gm != am {
			t.Fatalf("set %d: NoOpt demand %g/%g/%d, graph walk %g/%g/%d",
				i, gf, gi, gm, af, ai, am)
		}
	}
}

// TestDemandByKindSumsToDemand pins that the per-kind breakdown is a
// partition of the total.
func TestDemandByKindSumsToDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plans := randomPlans(t, rng, 4)
	df, di, dm := Demand(CompileOptions{}, plans...)
	var kf, ki float64
	var km, nodes int
	for _, kd := range DemandByKind(CompileOptions{}, plans...) {
		kf += kd.FloatOpsPerSec
		ki += kd.IntOpsPerSec
		km += kd.MemoryBytes
		nodes += kd.Nodes
	}
	if math.Abs(kf-df) > demandEps || math.Abs(ki-di) > demandEps || km != dm {
		t.Fatalf("per-kind sums %g/%g/%d vs demand %g/%g/%d", kf, ki, km, df, di, dm)
	}
	if nodes == 0 {
		t.Fatal("no nodes in breakdown")
	}
}
