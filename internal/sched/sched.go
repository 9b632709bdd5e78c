// Package sched implements the multi-tenant hub capacity model: an
// admission controller that decides which wake-up conditions run on the
// hub, within the device's cycle and RAM budget (hub.Device.Fits), and
// which degrade to phone-side duty-cycled fallback sensing.
//
// The paper's prototype pushes conditions until the hub rejects one; this
// package is the fleet model's admission controller, the multi-tenant
// story the prototype lacks. Each condition is costed through the DAG
// compile pass's static demand (package ir), so structurally identical
// subgraphs across applications — shared prefixes, shared interior
// stages, whole duplicate pipelines — are billed exactly once: two
// applications windowing the microphone the same way together cost one
// windower. On overload the controller does not reject: it demotes the
// lowest-priority conditions to fallback, where the phone's duty-cycling
// schedule covers them at higher energy (billed to the ledger's
// phone.fallback component by package sim).
//
// Admission is a deterministic full recompute over the registered set:
// conditions sorted by descending priority (insertion order breaking
// ties) are greedily placed on the hub while the merged demand of the
// placed set fits the budget. Placement is recomputed on every Add and
// Update, so the controller is history-free: the same registered set
// always yields the same placement regardless of the arrival order that
// produced it.
package sched

import (
	"fmt"
	"sort"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
)

// FallbackDeviceName is the name Placement.String renders for a condition
// degraded to phone-side sensing.
const FallbackDeviceName = "phone-fallback"

// BudgetFor returns the device itself: hub.Device carries the cycle
// budget (CycleBudget), the cycle conversion (Cycles) and the verdict
// (Fits). It remains because the swbench harness, a separate module,
// still calls it.
func BudgetFor(d hub.Device) hub.Device { return d }

// Placement says where a condition currently runs.
type Placement int

const (
	// PlacedHub: the condition is admitted to the sensor hub.
	PlacedHub Placement = iota
	// PlacedFallback: the condition is degraded to phone-side duty-cycled
	// sensing.
	PlacedFallback
)

// String returns the placement's report name.
func (p Placement) String() string {
	switch p {
	case PlacedHub:
		return "hub"
	case PlacedFallback:
		return FallbackDeviceName
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// condition is one registered wake-up condition.
type condition struct {
	id       uint16
	plan     *core.Plan
	priority int
	seq      int // insertion order, the priority tiebreak
}

// Delta reports the placement changes one Add or Update caused, with IDs
// in ascending order. The condition just added or updated appears in
// neither list; query its placement directly.
type Delta struct {
	// Promoted moved fallback -> hub (capacity freed up or sharing made
	// them cheap).
	Promoted []uint16
	// Demoted moved hub -> fallback (a higher-priority arrival displaced
	// them).
	Demoted []uint16
}

// Options tune the admission controller's costing.
type Options struct {
	// DisableSharing bills every condition its standalone demand: no
	// cross-app deduplication, no DAG folds — the sum of per-plan totals
	// (ir.NoOpt pricing).
	// This is the CSE-off ablation the fleet sweep compares against; the
	// default (false) bills the shared execution graph the hub actually
	// runs.
	DisableSharing bool
}

// Scheduler is the admission controller for one hub device.
type Scheduler struct {
	dev     hub.Device
	opts    Options
	conds   map[uint16]*condition
	placed  map[uint16]Placement
	nextSeq int
}

// New builds a scheduler over a device's budget with default
// (sharing-aware) costing.
func New(d hub.Device) *Scheduler { return NewWithOptions(d, Options{}) }

// NewWithOptions builds a scheduler with explicit costing options.
func NewWithOptions(d hub.Device, opts Options) *Scheduler {
	return &Scheduler{
		dev:    d,
		opts:   opts,
		conds:  make(map[uint16]*condition),
		placed: make(map[uint16]Placement),
	}
}

// pricing returns the compile options the scheduler bills under: the
// shared graph the hub runs, or with DisableSharing every rewrite off.
func (s *Scheduler) pricing() ir.CompileOptions {
	if s.opts.DisableSharing {
		return ir.NoOpt()
	}
	return ir.CompileOptions{}
}

// Add registers a condition and recomputes placements. Higher priority
// wins the hub under contention; equal priorities favor earlier arrivals.
// The condition is never rejected — at worst it lands in fallback.
func (s *Scheduler) Add(id uint16, plan *core.Plan, priority int) (Delta, error) {
	if plan == nil {
		return Delta{}, fmt.Errorf("sched: condition %d has no plan", id)
	}
	if _, ok := s.conds[id]; ok {
		return Delta{}, fmt.Errorf("sched: condition %d already registered", id)
	}
	s.conds[id] = &condition{id: id, plan: plan, priority: priority, seq: s.nextSeq}
	s.nextSeq++
	return s.recompute(id), nil
}

// Update swaps a registered condition's plan in place — keeping its
// priority and insertion order, so determinism is unaffected — and
// recomputes placements. This is the adaptive-sensing re-admission hook:
// a re-parameterized pipeline must clear the same cycle/RAM budget as a
// fresh push before the hub may run it. The updated condition's own
// placement transition is excluded from the delta, like Add's; query it
// with Placement. Updating an unknown ID is an error.
func (s *Scheduler) Update(id uint16, plan *core.Plan) (Delta, error) {
	if plan == nil {
		return Delta{}, fmt.Errorf("sched: condition %d has no plan", id)
	}
	c, ok := s.conds[id]
	if !ok {
		return Delta{}, fmt.Errorf("sched: unknown condition %d", id)
	}
	c.plan = plan
	return s.recompute(id), nil
}

// Placement reports where a condition runs.
func (s *Scheduler) Placement(id uint16) (Placement, bool) {
	p, ok := s.placed[id]
	return p, ok
}

// HubSet returns the admitted condition IDs in ascending order.
func (s *Scheduler) HubSet() []uint16 { return s.idsWhere(PlacedHub) }

// FallbackSet returns the degraded condition IDs in ascending order.
func (s *Scheduler) FallbackSet() []uint16 { return s.idsWhere(PlacedFallback) }

func (s *Scheduler) idsWhere(p Placement) []uint16 {
	var out []uint16
	for id, got := range s.placed {
		if got == p {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HubPlans returns the admitted set's plans in ascending ID order — the
// set whose merged demand is guaranteed to fit the budget.
func (s *Scheduler) HubPlans() []*core.Plan {
	ids := s.HubSet()
	out := make([]*core.Plan, len(ids))
	for i, id := range ids {
		out[i] = s.conds[id].plan
	}
	return out
}

// Utilization reports the admitted set's merged demand as fractions of
// the cycle and RAM budgets, plus the number of plan nodes the DAG compile
// pass eliminates: shared subgraphs (prefixes, interior stages, duplicate
// pipelines), folds and fusions.
func (s *Scheduler) Utilization() (cycleFrac, ramFrac float64, sharedNodes int) {
	plans := s.HubPlans()
	if len(plans) == 0 {
		return 0, 0, 0
	}
	opts := s.pricing()
	f, i, mem := ir.Demand(opts, plans...)
	for _, p := range plans {
		sharedNodes += len(p.Nodes)
	}
	for _, kd := range ir.DemandByKind(opts, plans...) {
		sharedNodes -= kd.Nodes
	}
	if budget := s.dev.CycleBudget(); budget > 0 {
		cycleFrac = s.dev.Cycles(f, i) / budget
	}
	if s.dev.RAMBytes > 0 {
		ramFrac = float64(mem) / float64(s.dev.RAMBytes)
	}
	return cycleFrac, ramFrac, sharedNodes
}

// recompute rebuilds the placement map greedily and diffs it against the
// previous one. The just-changed ID (added or updated) is excluded from
// the delta: its own transition is the caller's direct result, not a
// side effect.
func (s *Scheduler) recompute(changed uint16) Delta {
	order := make([]*condition, 0, len(s.conds))
	for _, c := range s.conds {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].priority != order[j].priority {
			return order[i].priority > order[j].priority
		}
		return order[i].seq < order[j].seq
	})

	next := make(map[uint16]Placement, len(order))
	acc := ir.NewDemandAccumulator(s.pricing())
	for _, c := range order {
		mf, mi, mmem := acc.Marginal(c.plan)
		f, i, mem := acc.Total()
		if s.dev.Fits(f+mf, i+mi, mem+mmem) {
			acc.Commit(c.plan)
			next[c.id] = PlacedHub
		} else {
			next[c.id] = PlacedFallback
		}
	}

	var d Delta
	for id, np := range next {
		if id == changed {
			continue
		}
		if op, had := s.placed[id]; had && op != np {
			if np == PlacedHub {
				d.Promoted = append(d.Promoted, id)
			} else {
				d.Demoted = append(d.Demoted, id)
			}
		}
	}
	sort.Slice(d.Promoted, func(i, j int) bool { return d.Promoted[i] < d.Promoted[j] })
	sort.Slice(d.Demoted, func(i, j int) bool { return d.Demoted[i] < d.Demoted[j] })
	s.placed = next
	return d
}
