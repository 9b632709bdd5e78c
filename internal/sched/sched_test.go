package sched

import (
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
)

// motionPlan is a cheap accelerometer condition (fits the MSP430).
func motionPlan(t *testing.T, threshold float64) *core.Plan {
	t.Helper()
	p := core.NewPipeline("motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(threshold))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// sirenPlan is the FFT-heavy audio condition that exceeds the MSP430's
// cycle budget (software floats) but fits the LM4F120. Distinct cutoffs
// produce structurally distinct chains (nothing shared); equal cutoffs
// share everything.
func sirenPlan(t *testing.T, cutoff float64) *core.Plan {
	t.Helper()
	p := core.NewPipeline("siren")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(cutoff, 512)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThreshold(4)))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// planTotals is the naive bill: every node's cost × rate and memory,
// summed per plan, then across plans; nothing shared.
func planTotals(plans []*core.Plan) (floatOps, intOps float64, memory int) {
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

func TestBudgetFromDeviceConstants(t *testing.T) {
	for _, d := range hub.Devices() {
		b := BudgetFor(d)
		if b.CycleBudget() != d.ClockHz*d.MaxUtilization {
			t.Errorf("%s cycle budget = %g, want %g", d.Name, b.CycleBudget(), d.ClockHz*d.MaxUtilization)
		}
		if b.RAMBytes != d.RAMBytes {
			t.Errorf("%s RAM budget = %d, want %d", d.Name, b.RAMBytes, d.RAMBytes)
		}
	}
}

func TestAdmitWithinBudget(t *testing.T) {
	s := New(hub.MSP430())
	d, err := s.Add(1, motionPlan(t, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Promoted) != 0 || len(d.Demoted) != 0 {
		t.Errorf("first add produced side effects: %+v", d)
	}
	if p, _ := s.Placement(1); p != PlacedHub {
		t.Errorf("placement = %v, want hub", p)
	}
}

func TestOverloadDegradesLowestPriority(t *testing.T) {
	// The siren chain cannot run on the MSP430 at all, so a lone siren
	// condition must degrade rather than be rejected.
	s := New(hub.MSP430())
	if _, err := s.Add(1, sirenPlan(t, 750), 5); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Placement(1); p != PlacedFallback {
		t.Errorf("infeasible condition placed %v, want fallback", p)
	}

	// On the LM4F120 one siren fits; stacking distinct (unshared) sirens
	// must eventually demote — and the lowest-priority one goes first.
	s = New(hub.LM4F120())
	if _, err := s.Add(1, sirenPlan(t, 750), 5); err != nil {
		t.Fatal(err)
	}
	var demoted []uint16
	id := uint16(2)
	for ; id < 40; id++ {
		// Distinct cutoffs defeat sharing so each siren pays full cost.
		d, err := s.Add(id, sirenPlan(t, 750+float64(id)), int(id))
		if err != nil {
			t.Fatal(err)
		}
		demoted = append(demoted, d.Demoted...)
		if len(s.FallbackSet()) > 0 {
			break
		}
	}
	if len(s.FallbackSet()) == 0 {
		t.Fatal("hub never overloaded")
	}
	// Condition 2 carries the lowest priority of the registered set
	// (priorities are 5, 2, 3, ...), so it must be the demotion victim
	// while the higher-priority condition 1 stays on the hub.
	if len(demoted) != 1 || demoted[0] != 2 {
		t.Errorf("demoted = %v, want [2]", demoted)
	}
	if p, _ := s.Placement(2); p != PlacedFallback {
		t.Error("condition 2 should be in fallback")
	}
	if p, _ := s.Placement(1); p != PlacedHub {
		t.Error("condition 1 should have stayed on the hub")
	}
}

func TestSharedPrefixAdmitsMore(t *testing.T) {
	// Identical sirens share the whole chain: the LM4F120 runs one siren,
	// so it must also run N copies (billed once), where distinct sirens
	// would overload it.
	s := New(hub.LM4F120())
	for id := uint16(1); id <= 12; id++ {
		if _, err := s.Add(id, sirenPlan(t, 750), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.FallbackSet()); n != 0 {
		t.Errorf("%d identical conditions degraded despite full sharing", n)
	}
	cycleFrac, _, shared := s.Utilization()
	if cycleFrac > 1 {
		t.Errorf("utilization %g exceeds budget", cycleFrac)
	}
	// 12 plans x 5 nodes, one live chain of 5 -> 55 deduplicated.
	if shared != 55 {
		t.Errorf("shared nodes = %d, want 55", shared)
	}
}

func TestRemovePromotesDegraded(t *testing.T) {
	s := New(hub.LM4F120())
	// Fill the hub with high-priority distinct sirens until one more (low
	// priority) degrades.
	id := uint16(1)
	for ; ; id++ {
		if _, err := s.Add(id, sirenPlan(t, 750+float64(id)), 1); err != nil {
			t.Fatal(err)
		}
		if len(s.FallbackSet()) > 0 {
			break
		}
	}
	victim := s.FallbackSet()[0]
	// Removing an admitted condition frees capacity: the victim must come
	// back.
	d, err := s.Remove(s.HubSet()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Promoted) != 1 || d.Promoted[0] != victim {
		t.Errorf("promoted = %v, want [%d]", d.Promoted, victim)
	}
	if p, _ := s.Placement(victim); p != PlacedHub {
		t.Error("victim not back on the hub")
	}
}

func TestAddRemoveErrors(t *testing.T) {
	s := New(hub.MSP430())
	if _, err := s.Add(1, nil, 0); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := s.Add(1, motionPlan(t, 15), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(1, motionPlan(t, 15), 0); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := s.Remove(9); err == nil {
		t.Error("unknown remove accepted")
	}
}

// TestPropertyAdmittedSetNeverExceedsBudget drives random Add/Remove
// sequences and checks the scheduler's core invariants after every
// operation:
//
//  1. the admitted set's merged demand fits the cycle and RAM budgets,
//  2. every registered condition is placed somewhere (no rejection), and
//  3. a degraded condition really would not fit: adding its plan to the
//     admitted set of its priority class would blow the budget (no
//     spurious degradation).
func TestPropertyAdmittedSetNeverExceedsBudget(t *testing.T) {
	plans := []*core.Plan{
		motionPlan(t, 15), motionPlan(t, 15), motionPlan(t, 25),
		sirenPlan(t, 750), sirenPlan(t, 800), sirenPlan(t, 850), sirenPlan(t, 900),
	}
	for _, dev := range hub.Devices() {
		rng := rand.New(rand.NewSource(7))
		s := New(dev)
		live := make(map[uint16]int) // id -> priority
		nextID := uint16(1)
		for op := 0; op < 300; op++ {
			if len(live) == 0 || (len(live) < 40 && rng.Intn(3) != 0) {
				prio := rng.Intn(3)
				if _, err := s.Add(nextID, plans[rng.Intn(len(plans))], prio); err != nil {
					t.Fatal(err)
				}
				live[nextID] = prio
				nextID++
			} else {
				var ids []uint16
				for id := range live {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				if _, err := s.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}

			hubIDs, fbIDs := s.HubSet(), s.FallbackSet()
			if len(hubIDs)+len(fbIDs) != len(live) {
				t.Fatalf("op %d on %s: %d placed != %d registered",
					op, dev.Name, len(hubIDs)+len(fbIDs), len(live))
			}
			f, i, mem := ir.Demand(ir.CompileOptions{}, s.HubPlans()...)
			if len(hubIDs) > 0 && !dev.Fits(f, i, mem) {
				t.Fatalf("op %d on %s: admitted set exceeds budget: %.2f Mcycles/s of %.2f, %d B of %d",
					op, dev.Name, dev.Cycles(f, i)/1e6, dev.CycleBudget()/1e6, mem, dev.RAMBytes)
			}
		}
	}
}

// TestPropertySharedPrefixBilledOnce: for any subset of conditions the
// scheduler admits, the demand it charges equals the merged demand — and
// duplicating a plan in the set never raises it.
func TestPropertySharedPrefixBilledOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := []*core.Plan{motionPlan(t, 15), sirenPlan(t, 750)}
	for trial := 0; trial < 50; trial++ {
		var set []*core.Plan
		for k := 0; k < 1+rng.Intn(6); k++ {
			set = append(set, base[rng.Intn(len(base))])
		}
		f1, i1, m1 := ir.Demand(ir.CompileOptions{}, set...)
		f2, i2, m2 := ir.Demand(ir.CompileOptions{}, append(set, set[rng.Intn(len(set))])...)
		if f1 != f2 || i1 != i2 || m1 != m2 {
			t.Fatalf("duplicating a plan changed merged demand: (%g,%g,%d) -> (%g,%g,%d)",
				f1, i1, m1, f2, i2, m2)
		}
	}
	// And the scheduler admits duplicates for free: a full LM4F120 still
	// accepts a copy of an already-admitted condition onto the hub.
	s := New(hub.LM4F120())
	id := uint16(1)
	for ; ; id++ {
		if _, err := s.Add(id, sirenPlan(t, 750+float64(id)), 2); err != nil {
			t.Fatal(err)
		}
		if len(s.FallbackSet()) > 0 {
			break
		}
	}
	dup := id + 1
	// Same cutoff as an admitted siren -> structurally identical -> zero
	// marginal cost, admitted even though the hub is "full".
	if _, err := s.Add(dup, sirenPlan(t, 751), 2); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Placement(dup); p != PlacedHub {
		t.Error("zero-marginal-cost duplicate was degraded")
	}
}

func TestPlacementString(t *testing.T) {
	if PlacedHub.String() != "hub" || PlacedFallback.String() != FallbackDeviceName {
		t.Errorf("unexpected names: %s, %s", PlacedHub, PlacedFallback)
	}
}

// TestDisableSharingBillsNaively pins the CSE-off ablation: identical
// siren conditions share everything under default costing (all admitted
// on the LM4F120), but bill their full standalone demand with sharing
// disabled, so the same set overflows and degrades.
func TestDisableSharingBillsNaively(t *testing.T) {
	const n = 6
	shared := New(hub.LM4F120())
	naive := NewWithOptions(hub.LM4F120(), Options{DisableSharing: true})
	for id := uint16(1); id <= n; id++ {
		plan := sirenPlan(t, 750)
		if _, err := shared.Add(id, plan, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.Add(id, plan, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(shared.HubSet()); got != n {
		t.Fatalf("sharing-aware scheduler admitted %d of %d identical conditions", got, n)
	}
	if got := len(naive.HubSet()); got >= n {
		t.Fatalf("naive scheduler admitted all %d identical conditions; sharing-off should overflow", got)
	}
	// Utilization must agree with the billing mode: naive fractions are
	// per-plan sums with no shared nodes reported.
	cycOn, _, sharedNodes := shared.Utilization()
	cycOff, _, naiveShared := naive.Utilization()
	if sharedNodes == 0 {
		t.Fatal("sharing-aware utilization reported zero shared nodes for identical plans")
	}
	if naiveShared != 0 {
		t.Fatalf("naive utilization reported %d shared nodes", naiveShared)
	}
	dev := hub.LM4F120()
	if nf, ni, _ := planTotals(naive.HubPlans()); cycOff != dev.Cycles(nf, ni)/dev.CycleBudget() {
		t.Fatalf("naive cycle fraction %g is not the per-plan sum's %g", cycOff, dev.Cycles(nf, ni)/dev.CycleBudget())
	}
	perCond := cycOn // all n shared conditions cost one pipeline
	if cycOff < perCond*float64(len(naive.HubSet()))-1e-9 {
		t.Fatalf("naive cycle fraction %g below %d standalone pipelines (%g each)",
			cycOff, len(naive.HubSet()), perCond)
	}
}

// TestPropertyNaiveBillingNeverCheaper: over random condition sets, the
// sharing-aware scheduler's merged demand never exceeds the naive
// scheduler's for the same admitted set, and a scheduler admitting under
// merged costing keeps every set it admits within budget when re-billed
// by the DAG demand (the invariant the hub actually runs under).
func TestPropertyNaiveBillingNeverCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		s := New(hub.LM4F120())
		n := 2 + rng.Intn(5)
		for id := uint16(1); id <= uint16(n); id++ {
			cutoffs := []float64{700, 750, 800}
			plan := sirenPlan(t, cutoffs[rng.Intn(len(cutoffs))])
			if _, err := s.Add(id, plan, rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
		plans := s.HubPlans()
		if len(plans) == 0 {
			continue
		}
		mf, mi, mm := ir.Demand(ir.CompileOptions{}, plans...)
		nf, ni, nm := planTotals(plans)
		if mf > nf+1e-9 || mi > ni+1e-9 || mm > nm {
			t.Fatalf("trial %d: merged demand %g/%g/%d exceeds naive %g/%g/%d",
				trial, mf, mi, mm, nf, ni, nm)
		}
		if !hub.LM4F120().Fits(mf, mi, mm) {
			t.Fatalf("trial %d: admitted set does not fit its own budget", trial)
		}
	}
}

func TestUpdateSwapsPlanInPlace(t *testing.T) {
	s := New(hub.MSP430())
	if _, err := s.Add(1, motionPlan(t, 15), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(2, motionPlan(t, 20), 1); err != nil {
		t.Fatal(err)
	}
	// A same-cost swap changes nothing for anyone.
	d, err := s.Update(1, motionPlan(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Promoted) != 0 || len(d.Demoted) != 0 {
		t.Fatalf("cheap update produced delta %+v", d)
	}
	if p, _ := s.Placement(1); p != PlacedHub {
		t.Fatalf("updated condition left the hub: %v", p)
	}
	// Updating to an infeasible plan degrades the condition itself (its
	// own transition is not part of the delta) without touching others.
	d, err = s.Update(1, sirenPlan(t, 750))
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Placement(1); p != PlacedFallback {
		t.Fatalf("infeasible update kept the hub: %v", p)
	}
	if p, _ := s.Placement(2); p != PlacedHub {
		t.Fatal("unrelated condition displaced by update")
	}
	// Updating back restores hub placement; priority and insertion order
	// survived the round trip.
	if _, err = s.Update(1, motionPlan(t, 15)); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Placement(1); p != PlacedHub {
		t.Fatal("restoring update did not re-admit")
	}
}

func TestUpdateErrors(t *testing.T) {
	s := New(hub.MSP430())
	if _, err := s.Update(9, motionPlan(t, 1)); err == nil {
		t.Fatal("updating an unregistered condition succeeded")
	}
	if _, err := s.Add(1, motionPlan(t, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(1, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}
