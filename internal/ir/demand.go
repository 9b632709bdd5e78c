package ir

import (
	"sort"

	"sidewinder/internal/core"
)

// Static demand analysis over the compiled DAG. This is the only code that
// prices a plan: the hub's feasibility checks, the admission controller,
// the adaptive engine's precision re-billing and the sharing analysis all
// call it, and hub.Device alone turns its operation counts into cycles.
// The scheduler bills a resident set by the graph it would actually
// execute: structurally identical subgraphs — shared prefixes, shared
// interior stages, whole duplicate pipelines — are billed once, and the
// folding/fusion rewrites shrink the bill further. Analysis works on the
// DAG before lowering (facts are carried over from the validated plan
// nodes), so it needs no catalog and allocates nothing per call beyond the
// per-plan graph walk.

// NodeDemand is one surviving DAG node's contribution to the bill.
type NodeDemand struct {
	// Key is the node's canonical structural identity; equal keys across
	// plans mean one shared instance.
	Key  string
	Kind core.AlgorithmKind
	// FloatOpsPerSec and IntOpsPerSec are cost × invocation rate.
	FloatOpsPerSec float64
	IntOpsPerSec   float64
	// MemoryBytes is the instance state.
	MemoryBytes int
}

// AnalyzePlan compiles one plan through the DAG pass (no lowering) and
// returns its surviving nodes' demand in topological order.
func AnalyzePlan(opts CompileOptions, plan *core.Plan) []NodeDemand {
	d, outs, _ := buildDAG(opts, []*core.Plan{plan})
	return demandNodes(d, outs)
}

// Demand computes the deduplicated demand of a resident plan set: the sum
// over the shared graph's surviving nodes of cost × rate, and their
// instance memory. Under NoOpt nothing is shared or rewritten, so every
// plan node bills as written: Demand sums each plan's nodes directly, then
// the plans, without building the graph. That is the naive bill the hub's
// feasibility checks and the CSE-off ablation price with, and it
// allocates nothing.
func Demand(opts CompileOptions, plans ...*core.Plan) (floatOpsPerSec, intOpsPerSec float64, memoryBytes int) {
	if opts == NoOpt() {
		for _, p := range plans {
			var pf, pi float64
			for i := range p.Nodes {
				n := &p.Nodes[i]
				pf += n.Cost.FloatOps * n.Rate
				pi += n.Cost.IntOps * n.Rate
				memoryBytes += n.Memory
			}
			floatOpsPerSec += pf
			intOpsPerSec += pi
		}
		return floatOpsPerSec, intOpsPerSec, memoryBytes
	}
	d, outs, _ := buildDAG(opts, plans)
	for _, nd := range demandNodes(d, outs) {
		floatOpsPerSec += nd.FloatOpsPerSec
		intOpsPerSec += nd.IntOpsPerSec
		memoryBytes += nd.MemoryBytes
	}
	return floatOpsPerSec, intOpsPerSec, memoryBytes
}

// demandNodes walks the graph in creation (= topological, = first
// occurrence) order and emits one entry per reachable stage node.
func demandNodes(d *DAG, outs []*DAGNode) []NodeDemand {
	reach := make(map[*DAGNode]bool)
	var mark func(*DAGNode)
	mark = func(n *DAGNode) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, p := range n.Parents() {
			mark(p)
		}
	}
	for _, o := range outs {
		mark(o)
	}
	var out []NodeDemand
	for _, n := range d.Nodes() {
		if n.Class() != StageNode || !reach[n] {
			continue
		}
		out = append(out, NodeDemand{
			Key:            n.Key,
			Kind:           n.Kind,
			FloatOpsPerSec: n.Cost().FloatOps * n.Rate(),
			IntOpsPerSec:   n.Cost().IntOps * n.Rate(),
			MemoryBytes:    n.Memory(),
		})
	}
	return out
}

// DemandAccumulator prices plans incrementally against a committed set:
// Marginal returns what a plan would add, Commit adds exactly that. With
// CSE on, nodes whose keys the committed set already contains cost zero;
// under NoCSE nothing is shared, so every plan bills in full, copies
// included. The totals always equal Demand over the committed plans to
// within float associativity.
type DemandAccumulator struct {
	opts           CompileOptions
	seen           map[string]bool // nil under NoCSE: nothing dedups
	cache          map[*core.Plan][]NodeDemand
	floatOpsPerSec float64
	intOpsPerSec   float64
	memoryBytes    int
}

// NewDemandAccumulator returns an empty accumulator billing under the
// given compile options.
func NewDemandAccumulator(opts CompileOptions) *DemandAccumulator {
	a := &DemandAccumulator{opts: opts, cache: make(map[*core.Plan][]NodeDemand)}
	if !opts.NoCSE {
		a.seen = make(map[string]bool)
	}
	return a
}

// analyze returns the plan's demand nodes, memoized per plan pointer (an
// admission controller re-prices the same registered plans on every
// recompute).
func (a *DemandAccumulator) analyze(plan *core.Plan) []NodeDemand {
	if nd, ok := a.cache[plan]; ok {
		return nd
	}
	nd := AnalyzePlan(a.opts, plan)
	a.cache[plan] = nd
	return nd
}

// price sums the plan's nodes the committed set does not already bill;
// with mark set it records them as billed.
func (a *DemandAccumulator) price(plan *core.Plan, mark bool) (floatOpsPerSec, intOpsPerSec float64, memoryBytes int) {
	for _, nd := range a.analyze(plan) {
		if a.seen[nd.Key] {
			continue
		}
		if mark && a.seen != nil {
			a.seen[nd.Key] = true
		}
		floatOpsPerSec += nd.FloatOpsPerSec
		intOpsPerSec += nd.IntOpsPerSec
		memoryBytes += nd.MemoryBytes
	}
	return floatOpsPerSec, intOpsPerSec, memoryBytes
}

// Marginal returns the additional demand the plan would add on top of the
// committed set, without committing it.
func (a *DemandAccumulator) Marginal(plan *core.Plan) (floatOpsPerSec, intOpsPerSec float64, memoryBytes int) {
	return a.price(plan, false)
}

// Commit adds the plan's marginal demand to the committed set and returns
// the accumulated totals.
func (a *DemandAccumulator) Commit(plan *core.Plan) (floatOpsPerSec, intOpsPerSec float64, memoryBytes int) {
	f, i, mem := a.price(plan, true)
	a.floatOpsPerSec += f
	a.intOpsPerSec += i
	a.memoryBytes += mem
	return a.Total()
}

// Total returns the committed set's demand.
func (a *DemandAccumulator) Total() (floatOpsPerSec, intOpsPerSec float64, memoryBytes int) {
	return a.floatOpsPerSec, a.intOpsPerSec, a.memoryBytes
}

// KindDemand is the deduplicated demand attributed to one algorithm kind.
type KindDemand struct {
	Kind core.AlgorithmKind
	// Nodes counts the distinct shared instances of this kind.
	Nodes          int
	FloatOpsPerSec float64
	IntOpsPerSec   float64
	MemoryBytes    int
}

// DemandByKind breaks Demand down per algorithm kind, kind-sorted. The
// per-kind columns sum to exactly what Demand returns for the same plans.
func DemandByKind(opts CompileOptions, plans ...*core.Plan) []KindDemand {
	d, outs, _ := buildDAG(opts, plans)
	byKind := make(map[core.AlgorithmKind]*KindDemand)
	for _, nd := range demandNodes(d, outs) {
		kd := byKind[nd.Kind]
		if kd == nil {
			kd = &KindDemand{Kind: nd.Kind}
			byKind[nd.Kind] = kd
		}
		kd.Nodes++
		kd.FloatOpsPerSec += nd.FloatOpsPerSec
		kd.IntOpsPerSec += nd.IntOpsPerSec
		kd.MemoryBytes += nd.MemoryBytes
	}
	out := make([]KindDemand, 0, len(byKind))
	for _, kd := range byKind {
		out = append(out, *kd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
