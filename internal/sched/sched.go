// Package sched implements the multi-tenant hub capacity model: one
// greedy placement that decides which wake-up conditions run on the hub,
// within the device's cycle and RAM budget (hub.Device.Fits), and which
// degrade to phone-side duty-cycled fallback sensing.
//
// The paper's prototype pushes conditions until the hub rejects one; this
// package is the fleet model's admission controller, the multi-tenant
// story the prototype lacks. Each condition is costed through the DAG
// compile pass's static demand (package ir), so structurally identical
// subgraphs across applications — shared prefixes, shared interior
// stages, whole duplicate pipelines — are billed exactly once: two
// applications windowing the microphone the same way together cost one
// windower. On overload the controller does not reject: the conditions
// that do not fit degrade to fallback, where the phone's duty-cycling
// schedule covers them at higher energy (billed to the ledger's
// phone.fallback component by package sim).
//
// Place is the placement: conditions sorted by descending priority (index
// order breaking ties) are greedily admitted while the shared demand of
// the admitted set fits the budget. It is a pure function of its inputs,
// so the same set always yields the same placement regardless of the
// arrival order that produced it. Scheduler is a registry of conditions
// on one device that re-runs Place on every Add and Update.
package sched

import (
	"fmt"
	"sort"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
)

// BudgetFor returns the device itself: hub.Device carries the cycle
// budget (CycleBudget), the cycle conversion (Cycles) and the verdict
// (Fits). It remains because the swbench harness, a separate module,
// still calls it.
func BudgetFor(d hub.Device) hub.Device { return d }

// Result is one placement of a condition set on a device.
type Result struct {
	// Device is the device the set was placed on.
	Device hub.Device
	// Admitted lists the indices of the plans resident on the hub, in
	// ascending order; every other plan degrades to fallback.
	Admitted []int
	// CycleFrac and RAMFrac are the admitted set's shared demand as
	// fractions of the device's cycle budget and RAM.
	CycleFrac float64
	RAMFrac   float64
	// SharedNodes counts the admitted plans' nodes the DAG compile pass
	// eliminates: shared subgraphs (prefixes, interior stages, duplicate
	// pipelines), folds and fusions.
	SharedNodes int
}

// Place places plans, with their priorities, on the first device of the
// ladder that admits every plan; when none does, the last device carries
// what fits and the rest degrades. On each device it runs one greedy pass
// in descending priority, ties by index: a plan is admitted when the
// demand it adds to the admitted set, its nodes whose structural keys the
// set does not already bill, still fits. opts prices the plans; under
// NoCSE nothing is shared, so every plan bills in full, copies included.
// Each plan is analyzed once, whatever the ladder's length. Place returns
// the zero Result for an empty ladder.
func Place(devices []hub.Device, plans []*core.Plan, priorities []int, opts ir.CompileOptions) Result {
	demand := make([][]ir.NodeDemand, len(plans))
	order := make([]int, len(plans))
	for j, plan := range plans {
		demand[j] = ir.AnalyzePlan(opts, plan)
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return priorities[order[a]] > priorities[order[b]] })

	var r Result
	for _, dev := range devices {
		r = placeOn(dev, plans, order, demand, opts.NoCSE)
		if len(r.Admitted) == len(plans) {
			break
		}
	}
	return r
}

// placeOn runs the greedy pass of Place on one device, visiting plans in
// order, with demand[j] the analysis of plans[j].
func placeOn(dev hub.Device, plans []*core.Plan, order []int, demand [][]ir.NodeDemand, noCSE bool) Result {
	var billed map[string]bool // nil under NoCSE: nothing dedups
	if !noCSE {
		billed = make(map[string]bool)
	}
	r := Result{Device: dev}
	var f, i float64
	var mem int
	for _, j := range order {
		var mf, mi float64
		var mmem, mnodes int
		for _, nd := range demand[j] {
			if billed[nd.Key] {
				continue
			}
			mf += nd.FloatOpsPerSec
			mi += nd.IntOpsPerSec
			mmem += nd.MemoryBytes
			mnodes++
		}
		if !dev.Fits(f+mf, i+mi, mem+mmem) {
			continue
		}
		if billed != nil {
			for _, nd := range demand[j] {
				billed[nd.Key] = true
			}
		}
		f, i, mem = f+mf, i+mi, mem+mmem
		r.Admitted = append(r.Admitted, j)
		r.SharedNodes += len(plans[j].Nodes) - mnodes
	}
	sort.Ints(r.Admitted)
	if budget := dev.CycleBudget(); budget > 0 {
		r.CycleFrac = dev.Cycles(f, i) / budget
	}
	if dev.RAMBytes > 0 {
		r.RAMFrac = float64(mem) / float64(dev.RAMBytes)
	}
	return r
}

// Placement says where a condition currently runs.
type Placement int

const (
	// PlacedHub: the condition is admitted to the sensor hub.
	PlacedHub Placement = iota
	// PlacedFallback: the condition is degraded to phone-side duty-cycled
	// sensing.
	PlacedFallback
)

// Scheduler is a registry of conditions on one hub device, placed by
// Place after every change. Registration order breaks priority ties.
type Scheduler struct {
	dev        hub.Device
	index      map[uint16]int // condition ID -> registration order
	ids        []uint16
	plans      []*core.Plan
	priorities []int
	onHub      []bool
}

// New builds a scheduler over a device's budget with sharing-aware
// costing.
func New(d hub.Device) *Scheduler {
	return &Scheduler{dev: d, index: make(map[uint16]int)}
}

// Add registers a condition, re-places the set and returns the
// condition's placement. Higher priority wins the hub under contention;
// equal priorities favor earlier arrivals. The condition is never
// rejected — at worst it lands in fallback.
func (s *Scheduler) Add(id uint16, plan *core.Plan, priority int) (Placement, error) {
	if plan == nil {
		return PlacedFallback, fmt.Errorf("sched: condition %d has no plan", id)
	}
	if _, ok := s.index[id]; ok {
		return PlacedFallback, fmt.Errorf("sched: condition %d already registered", id)
	}
	s.index[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.plans = append(s.plans, plan)
	s.priorities = append(s.priorities, priority)
	s.recompute()
	p, _ := s.Placement(id)
	return p, nil
}

// Update swaps a registered condition's plan in place — keeping its
// priority and registration order, so determinism is unaffected — then
// re-places the set and returns the condition's placement. This is the
// adaptive-sensing re-admission hook: a re-parameterized pipeline must
// clear the same cycle/RAM budget as a fresh push before the hub may run
// it. Updating an unknown ID is an error.
func (s *Scheduler) Update(id uint16, plan *core.Plan) (Placement, error) {
	if plan == nil {
		return PlacedFallback, fmt.Errorf("sched: condition %d has no plan", id)
	}
	k, ok := s.index[id]
	if !ok {
		return PlacedFallback, fmt.Errorf("sched: unknown condition %d", id)
	}
	s.plans[k] = plan
	s.recompute()
	p, _ := s.Placement(id)
	return p, nil
}

// Placement reports where a condition runs.
func (s *Scheduler) Placement(id uint16) (Placement, bool) {
	k, ok := s.index[id]
	if !ok {
		return PlacedHub, false
	}
	if s.onHub[k] {
		return PlacedHub, true
	}
	return PlacedFallback, true
}

// HubSet returns the admitted condition IDs in ascending order.
func (s *Scheduler) HubSet() []uint16 {
	var out []uint16
	for k, id := range s.ids {
		if s.onHub[k] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// recompute re-places the registered set on the device.
func (s *Scheduler) recompute() {
	r := Place([]hub.Device{s.dev}, s.plans, s.priorities, ir.CompileOptions{})
	s.onHub = make([]bool, len(s.ids))
	for _, k := range r.Admitted {
		s.onHub[k] = true
	}
}
