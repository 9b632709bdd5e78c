package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
	"sidewinder/internal/testutil"
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

// fallbackSet returns the degraded condition IDs in ascending order.
func fallbackSet(s *Scheduler) []uint16 {
	var out []uint16
	for _, id := range s.ids {
		if p, _ := s.Placement(id); p == PlacedFallback {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// minus returns the IDs of a that are not in b, in a's order.
func minus(a, b []uint16) []uint16 {
	var out []uint16
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

// outranks reports whether plan j of a placement was visited before plan
// k: higher priority, or equal priority and a lower index.
func outranks(priorities []int, j, k int) bool {
	return priorities[j] > priorities[k] || (priorities[j] == priorities[k] && j < k)
}

// indexed returns the plans at the given indices.
func indexed(plans []*core.Plan, idx []int) []*core.Plan {
	out := make([]*core.Plan, len(idx))
	for k, j := range idx {
		out[k] = plans[j]
	}
	return out
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
	p, err := s.Add(1, motionPlan(t, 15), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != PlacedHub {
		t.Errorf("Add placed the condition %v, want hub", p)
	}
	if p, ok := s.Placement(1); !ok || p != PlacedHub {
		t.Errorf("placement = %v (known %v), want hub", p, ok)
	}
	if _, ok := s.Placement(2); ok {
		t.Error("unregistered condition has a placement")
	}
}

func TestOverloadDegradesLowestPriority(t *testing.T) {
	// The siren chain cannot run on the MSP430 at all, so a lone siren
	// condition must degrade rather than be rejected.
	s := New(hub.MSP430())
	if p, err := s.Add(1, sirenPlan(t, 750), 5); err != nil || p != PlacedFallback {
		t.Fatalf("infeasible condition placed %v (err %v), want fallback", p, err)
	}

	// On the LM4F120 one siren fits; stacking distinct (unshared) sirens
	// must eventually demote — and the lowest-priority one goes first.
	s = New(hub.LM4F120())
	if _, err := s.Add(1, sirenPlan(t, 750), 5); err != nil {
		t.Fatal(err)
	}
	var demoted []uint16
	for id := uint16(2); id < 40; id++ {
		before := s.HubSet()
		// Distinct cutoffs defeat sharing so each siren pays full cost.
		if _, err := s.Add(id, sirenPlan(t, 750+float64(id)), int(id)); err != nil {
			t.Fatal(err)
		}
		demoted = append(demoted, minus(before, s.HubSet())...)
		if len(fallbackSet(s)) > 0 {
			break
		}
	}
	if len(fallbackSet(s)) == 0 {
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
	plans := make([]*core.Plan, 12)
	for k := range plans {
		plans[k] = sirenPlan(t, 750)
		if _, err := s.Add(uint16(k+1), plans[k], 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(fallbackSet(s)); n != 0 {
		t.Errorf("%d identical conditions degraded despite full sharing", n)
	}
	r := Place([]hub.Device{hub.LM4F120()}, plans, make([]int, len(plans)), ir.CompileOptions{})
	if r.CycleFrac > 1 {
		t.Errorf("utilization %g exceeds budget", r.CycleFrac)
	}
	// 12 plans x 5 nodes, one live chain of 5 -> 55 deduplicated.
	if r.SharedNodes != 55 {
		t.Errorf("shared nodes = %d, want 55", r.SharedNodes)
	}
}

func TestUpdatePromotesDegraded(t *testing.T) {
	s := New(hub.LM4F120())
	// Fill the hub with high-priority distinct sirens until one more (low
	// priority) degrades.
	for id := uint16(1); len(fallbackSet(s)) == 0; id++ {
		if _, err := s.Add(id, sirenPlan(t, 750+float64(id)), 1); err != nil {
			t.Fatal(err)
		}
	}
	victim := fallbackSet(s)[0]
	// Shrinking an admitted condition to a cheap motion plan frees
	// capacity: the victim must come back.
	before := s.HubSet()
	shrunk := before[0]
	if p, err := s.Update(shrunk, motionPlan(t, 15)); err != nil || p != PlacedHub {
		t.Fatalf("shrunk condition placed %v (err %v), want hub", p, err)
	}
	if promoted := minus(s.HubSet(), before); len(promoted) != 1 || promoted[0] != victim {
		t.Errorf("promoted = %v, want [%d]", promoted, victim)
	}
	if demoted := minus(before, s.HubSet()); len(demoted) != 0 {
		t.Errorf("shrinking a condition demoted %v", demoted)
	}
}

func TestAddErrors(t *testing.T) {
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
}

// TestPropertyAdmittedSetNeverExceedsBudget drives random growing and
// changing condition sets through Place, and the same operations through
// a Scheduler, and checks the placement's core invariants after every
// operation:
//
//  1. the admitted set's merged demand fits the cycle and RAM budgets,
//  2. every condition is placed somewhere (no rejection), and
//  3. a degraded condition really would not fit: adding its plan to the
//     admitted conditions that outrank it (higher priority, or equal
//     priority and registered earlier) would blow the budget (no
//     spurious degradation).
//
// The Scheduler, fed the same Add and Update sequence, must admit exactly
// the conditions Place admits.
func TestPropertyAdmittedSetNeverExceedsBudget(t *testing.T) {
	pool := []*core.Plan{
		motionPlan(t, 15), motionPlan(t, 15), motionPlan(t, 25),
		sirenPlan(t, 750), sirenPlan(t, 800), sirenPlan(t, 850), sirenPlan(t, 900),
	}
	for _, dev := range hub.Devices() {
		rng := rand.New(rand.NewSource(7))
		s := New(dev)
		var plans []*core.Plan // condition ID k+1 is plans[k]
		var priorities []int
		degraded := 0 // degradations invariant 3 checked
		for op := 0; op < 300; op++ {
			plan := pool[rng.Intn(len(pool))]
			if len(plans) == 0 || (len(plans) < 40 && rng.Intn(3) != 0) {
				plans = append(plans, plan)
				priorities = append(priorities, rng.Intn(3))
				if _, err := s.Add(uint16(len(plans)), plan, priorities[len(plans)-1]); err != nil {
					t.Fatal(err)
				}
			} else {
				k := rng.Intn(len(plans))
				plans[k] = plan
				if _, err := s.Update(uint16(k+1), plan); err != nil {
					t.Fatal(err)
				}
			}

			r := Place([]hub.Device{dev}, plans, priorities, ir.CompileOptions{})
			if r.Device.Name != dev.Name {
				t.Fatalf("op %d: placed on %s, the ladder holds only %s", op, r.Device.Name, dev.Name)
			}
			var hubIDs []uint16
			for _, j := range r.Admitted {
				hubIDs = append(hubIDs, uint16(j+1))
			}
			if got := s.HubSet(); !slices.Equal(got, hubIDs) {
				t.Fatalf("op %d on %s: scheduler admits %v, Place admits %v", op, dev.Name, got, hubIDs)
			}
			if n := len(hubIDs) + len(fallbackSet(s)); n != len(plans) {
				t.Fatalf("op %d on %s: %d placed != %d registered", op, dev.Name, n, len(plans))
			}
			f, i, mem := ir.Demand(ir.CompileOptions{}, indexed(plans, r.Admitted)...)
			if len(r.Admitted) > 0 && !dev.Fits(f, i, mem) {
				t.Fatalf("op %d on %s: admitted set exceeds budget: %.2f Mcycles/s of %.2f, %d B of %d",
					op, dev.Name, dev.Cycles(f, i)/1e6, dev.CycleBudget()/1e6, mem, dev.RAMBytes)
			}
			for k := range plans {
				if slices.Contains(r.Admitted, k) {
					continue
				}
				degraded++
				var set []*core.Plan
				for _, j := range r.Admitted {
					if outranks(priorities, j, k) {
						set = append(set, plans[j])
					}
				}
				if f, i, mem := ir.Demand(ir.CompileOptions{}, append(set, plans[k])...); dev.Fits(f, i, mem) {
					t.Fatalf("op %d on %s: condition %d degraded, yet it fits on top of the %d admitted conditions that outrank it",
						op, dev.Name, k+1, len(set))
				}
			}
		}
		if degraded == 0 {
			t.Errorf("%s never degraded a condition; invariant 3 went unchecked", dev.Name)
		}
	}
}

// TestPropertyPlaceMatchesDemand checks one Place pass against the
// one-shot demand model over random mixes, with sharing on and off, on
// each device and on the whole ladder:
//
//  1. the chosen device is the ladder's first that admits every plan, or
//     its last when none does;
//  2. ir.Demand over the admitted set fits the chosen device;
//  3. each rejected plan would not have fit at its turn, on top of the
//     admitted plans that outrank it;
//  4. SharedNodes is the admitted plans' node count minus the distinct
//     nodes ir.DemandByKind bills for them; and
//  5. the cycle and RAM fractions are ir.Demand's to a relative 1e-12.
//
// Every mix carries a copy of one of its plans: with sharing a copy costs
// nothing, while under NoOpt it bills in full.
func TestPropertyPlaceMatchesDemand(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(99))
	var pool []*core.Plan
	for len(pool) < 24 {
		plan, err := testutil.RandomPipeline(rng).Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, plan)
	}
	for _, cutoff := range []float64{700, 750, 800, 850} {
		pool = append(pool, sirenPlan(t, cutoff))
	}
	ladders := [][]hub.Device{{hub.MSP430()}, {hub.LM4F120()}, hub.Devices()}
	rejected := 0
	for _, opts := range []ir.CompileOptions{{}, ir.NoOpt()} {
		for trial := 0; trial < 60; trial++ {
			plans := make([]*core.Plan, 1+rng.Intn(8))
			priorities := make([]int, len(plans)+1)
			for k := range plans {
				plans[k] = pool[rng.Intn(len(pool))]
			}
			plans = append(plans, plans[rng.Intn(len(plans))])
			for k := range priorities {
				priorities[k] = rng.Intn(3)
			}
			for _, ladder := range ladders {
				r := Place(ladder, plans, priorities, opts)
				dev := r.Device
				want := ladder[len(ladder)-1]
				for _, d := range ladder {
					if len(Place([]hub.Device{d}, plans, priorities, opts).Admitted) == len(plans) {
						want = d
						break
					}
				}
				if dev.Name != want.Name {
					t.Fatalf("%+v trial %d: placed on %s, want %s (the first device admitting every plan, else the last)",
						opts, trial, dev.Name, want.Name)
				}
				admitted := indexed(plans, r.Admitted)
				f, i, mem := ir.Demand(opts, admitted...)
				if !dev.Fits(f, i, mem) {
					t.Fatalf("%+v trial %d on %s: admitted set exceeds budget", opts, trial, dev.Name)
				}
				for k := range plans {
					if slices.Contains(r.Admitted, k) {
						continue
					}
					rejected++
					var set []*core.Plan
					for _, j := range r.Admitted {
						if outranks(priorities, j, k) {
							set = append(set, plans[j])
						}
					}
					if f, i, mem := ir.Demand(opts, append(set, plans[k])...); dev.Fits(f, i, mem) {
						t.Fatalf("%+v trial %d on %s: plan %d rejected, yet it fits on top of the %d plans that outrank it",
							opts, trial, dev.Name, k, len(set))
					}
				}
				shared := 0
				for _, p := range admitted {
					shared += len(p.Nodes)
				}
				for _, kd := range ir.DemandByKind(opts, admitted...) {
					shared -= kd.Nodes
				}
				if r.SharedNodes != shared {
					t.Fatalf("%+v trial %d on %s: %d shared nodes, DemandByKind gives %d", opts, trial, dev.Name, r.SharedNodes, shared)
				}
				cyc := dev.Cycles(f, i) / dev.CycleBudget()
				ram := float64(mem) / float64(dev.RAMBytes)
				if math.Abs(r.CycleFrac-cyc) > 1e-12*cyc || math.Abs(r.RAMFrac-ram) > 1e-12*ram {
					t.Fatalf("%+v trial %d on %s: fractions %g/%g, ir.Demand gives %g/%g",
						opts, trial, dev.Name, r.CycleFrac, r.RAMFrac, cyc, ram)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no plan was ever rejected; check 2 went unchecked")
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
		if len(fallbackSet(s)) > 0 {
			break
		}
	}
	dup := id + 1
	// Same cutoff as an admitted siren -> structurally identical -> zero
	// marginal cost, admitted even though the hub is "full".
	if p, err := s.Add(dup, sirenPlan(t, 751), 2); err != nil || p != PlacedHub {
		t.Errorf("zero-marginal-cost duplicate placed %v (err %v), want hub", p, err)
	}
}

// TestDisableSharingBillsNaively pins the CSE-off ablation: identical
// siren conditions share everything under default costing (all admitted
// on the LM4F120), but bill their full standalone demand under NoOpt, so
// the same set overflows and degrades.
func TestDisableSharingBillsNaively(t *testing.T) {
	const n = 6
	dev := hub.LM4F120()
	plans := make([]*core.Plan, n)
	for k := range plans {
		plans[k] = sirenPlan(t, 750)
	}
	shared := Place([]hub.Device{dev}, plans, make([]int, n), ir.CompileOptions{})
	naive := Place([]hub.Device{dev}, plans, make([]int, n), ir.NoOpt())
	if got := len(shared.Admitted); got != n {
		t.Fatalf("sharing-aware placement admitted %d of %d identical conditions", got, n)
	}
	if got := len(naive.Admitted); got >= n {
		t.Fatalf("naive placement admitted all %d identical conditions; sharing-off should overflow", got)
	}
	// The fractions must agree with the billing mode: naive fractions are
	// per-plan sums with no shared nodes reported.
	if shared.SharedNodes == 0 {
		t.Fatal("sharing-aware placement reported zero shared nodes for identical plans")
	}
	if naive.SharedNodes != 0 {
		t.Fatalf("naive placement reported %d shared nodes", naive.SharedNodes)
	}
	if nf, ni, _ := planTotals(indexed(plans, naive.Admitted)); naive.CycleFrac != dev.Cycles(nf, ni)/dev.CycleBudget() {
		t.Fatalf("naive cycle fraction %g is not the per-plan sum's %g", naive.CycleFrac, dev.Cycles(nf, ni)/dev.CycleBudget())
	}
	perCond := shared.CycleFrac // all n shared conditions cost one pipeline
	if naive.CycleFrac < perCond*float64(len(naive.Admitted))-1e-9 {
		t.Fatalf("naive cycle fraction %g below %d standalone pipelines (%g each)",
			naive.CycleFrac, len(naive.Admitted), perCond)
	}
}

// TestPropertyNaiveBillingNeverCheaper: over random condition sets, the
// sharing-aware merged demand of an admitted set never exceeds its naive
// bill, and a placement admitting under merged costing keeps every set it
// admits within budget when re-billed by the DAG demand (the invariant
// the hub actually runs under).
func TestPropertyNaiveBillingNeverCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		all := make([]*core.Plan, n)
		priorities := make([]int, n)
		for k := range all {
			cutoffs := []float64{700, 750, 800}
			all[k] = sirenPlan(t, cutoffs[rng.Intn(len(cutoffs))])
			priorities[k] = rng.Intn(3)
		}
		r := Place([]hub.Device{hub.LM4F120()}, all, priorities, ir.CompileOptions{})
		plans := indexed(all, r.Admitted)
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
	if p, err := s.Update(1, motionPlan(t, 16)); err != nil || p != PlacedHub {
		t.Fatalf("cheap update placed %v (err %v), want hub", p, err)
	}
	if got := s.HubSet(); !slices.Equal(got, []uint16{1, 2}) {
		t.Fatalf("cheap update left hub set %v, want [1 2]", got)
	}
	// Updating to an infeasible plan degrades the condition itself
	// without touching others.
	if p, err := s.Update(1, sirenPlan(t, 750)); err != nil || p != PlacedFallback {
		t.Fatalf("infeasible update placed %v (err %v), want fallback", p, err)
	}
	if p, _ := s.Placement(2); p != PlacedHub {
		t.Fatal("unrelated condition displaced by update")
	}
	// Updating back restores hub placement; priority and insertion order
	// survived the round trip.
	if p, err := s.Update(1, motionPlan(t, 15)); err != nil || p != PlacedHub {
		t.Fatalf("restoring update placed %v (err %v), want hub", p, err)
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
