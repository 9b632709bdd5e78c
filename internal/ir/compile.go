package ir

import (
	"fmt"
	"math"
	"strings"

	"sidewinder/internal/core"
)

// The DAG compile pass. It rebuilds one or more validated plans as a
// single hash-consed DAG, applying three families of rewrites, and lowers
// the result back to a core.Plan the interpreter executes directly:
//
//   - constant folding: rewrites that are bit-exact on every input.
//     Window step=0 is canonicalized to step=size (the catalog defines
//     them as the same window, so the two spellings must share); abs∘abs
//     collapses (|.| is idempotent); and-aggregations drop duplicate
//     inputs (min over a multiset equals min over its set, and the join
//     fires on exactly the same emissions), collapsing entirely when one
//     distinct input remains.
//
//   - stage fusion: consecutive same-kind admission thresholds with
//     sustain=1 fuse into one (min∘min keeps the larger bound, max∘max
//     the smaller, band∘band the intersection when non-empty). A value
//     passes the fused gate exactly when it passes the chain — including
//     in Q15, where quantization is monotone so the bound algebra
//     commutes with the grid.
//
//   - cross-app common-subgraph elimination: hash-consing over the
//     canonical structural keys makes any two identical (stage, params,
//     upstream) subgraphs — within one app or across resident apps — one
//     node, executed and billed once.
//
// Every rewrite preserves observable wakes bit-for-bit; only the executed
// and billed work shrinks. TestDAGLinearEquivalence (package interp) pins
// that end to end.

// CompileOptions selects which rewrite families run. The zero value runs
// everything; the No* switches are ablation knobs for tests and the
// fleet's CSE-off comparison.
type CompileOptions struct {
	// NoCSE suppresses hash-consing: every plan node lowers to its own
	// instance (duplicate work executes and bills per app).
	NoCSE bool
	// NoFold suppresses constant folding and parameter canonicalization.
	NoFold bool
	// NoFuse suppresses threshold fusion.
	NoFuse bool
}

// NoOpt returns the options that disable every rewrite.
func NoOpt() CompileOptions { return CompileOptions{NoCSE: true, NoFold: true, NoFuse: true} }

// CompileStats reports what the pass did.
type CompileStats struct {
	// InNodes counts the plan nodes fed in (across all plans).
	InNodes int
	// OutNodes counts the lowered shared-plan nodes.
	OutNodes int
	// SharedNodes counts hash-cons hits: plan nodes that mapped onto an
	// already existing structurally identical node.
	SharedNodes int
	// FoldedNodes counts constant folds (abs∘abs, and-input dedup and
	// collapse).
	FoldedNodes int
	// FusedNodes counts threshold fusions.
	FusedNodes int
	// CanonNodes counts nodes whose parameters were rewritten to
	// canonical form (window step=0 → step=size).
	CanonNodes int
	// PrunedNodes counts stage nodes left unreachable by rewrites
	// (e.g. a fused-away intermediate threshold) and dropped at lowering.
	PrunedNodes int
}

// Eliminated is the number of plan nodes the pass removed.
func (s CompileStats) Eliminated() int { return s.InNodes - s.OutNodes }

// String renders the stats one-line for reports.
func (s CompileStats) String() string {
	return fmt.Sprintf("%d -> %d nodes (%d shared, %d folded, %d fused, %d canonicalized, %d pruned)",
		s.InNodes, s.OutNodes, s.SharedNodes, s.FoldedNodes, s.FusedNodes, s.CanonNodes, s.PrunedNodes)
}

// AppOut names one input plan's output node within the shared plan.
type AppOut struct {
	// Name is the originating plan's name.
	Name string
	// Out is the shared-plan node ID feeding this app's OUT.
	Out int
}

// SharedPlan is the compile pass's result: one merged execution plan in
// which every input plan's pipeline is a subgraph and structurally
// identical subgraphs appear once.
type SharedPlan struct {
	// Plan holds the lowered nodes in topological order with IDs 1..n,
	// fully re-resolved against the catalog. Unlike a single-pipeline
	// plan, the last node is not necessarily an output: consult Outputs.
	Plan *core.Plan
	// Outputs maps each input plan (in argument order) to its output
	// node.
	Outputs []AppOut
	// Keys and Hashes give each lowered node's canonical structural
	// identity, parallel to Plan.Nodes.
	Keys   []string
	Hashes []uint64
	// Stats reports the rewrites applied.
	Stats CompileStats
	// Sources are the input plans, in argument order.
	Sources []*core.Plan
	// Graph is the underlying DAG (including nodes later pruned), kept
	// for dot export and diagnostics.
	Graph *DAG
}

// CompilePlans runs the DAG compile pass over the resident plans and
// lowers the shared graph to one executable plan. Plans must come from
// core validation or IR binding; the pass re-resolves every lowered node
// against the catalog, so a structural error here is an internal bug, not
// user input.
func CompilePlans(cat *core.Catalog, opts CompileOptions, plans ...*core.Plan) (*SharedPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("ir: compile needs at least one plan")
	}
	d, outs, stats := buildDAG(opts, plans)

	// Reachability: rewrites can strand nodes (a fused-away threshold, a
	// collapsed and); only what some app's OUT depends on is lowered.
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

	plan := &core.Plan{Name: sharedName(plans)}
	sp := &SharedPlan{Plan: plan, Sources: plans, Graph: d}
	lowered := make(map[*DAGNode]int, d.Len()) // node -> plan ID
	seenCh := make(map[core.SensorChannel]bool)
	for _, dn := range d.Nodes() {
		if dn.Class() != StageNode {
			continue
		}
		if !reach[dn] {
			stats.PrunedNodes++
			continue
		}
		ins := make([]core.ResolvedInput, len(dn.Parents()))
		for j, p := range dn.Parents() {
			if p.Class() == SourceNode {
				if !seenCh[p.Channel] {
					seenCh[p.Channel] = true
					plan.Channels = append(plan.Channels, p.Channel)
				}
				ins[j] = core.ChannelInput(p.Channel)
			} else {
				ins[j] = plan.Nodes[lowered[p]-1].Output()
			}
		}
		pn, err := core.ResolveNode(cat, len(plan.Nodes)+1, dn.Kind, dn.Params, ins)
		if err != nil {
			return nil, fmt.Errorf("ir: lowering %s: %w", dn.Key, err)
		}
		plan.Nodes = append(plan.Nodes, pn)
		lowered[dn] = pn.ID
		sp.Keys = append(sp.Keys, dn.Key)
		sp.Hashes = append(sp.Hashes, dn.Hash)
	}
	stats.OutNodes = len(plan.Nodes)
	sp.Stats = stats
	for i, o := range outs {
		sp.Outputs = append(sp.Outputs, AppOut{Name: plans[i].Name, Out: lowered[o]})
	}
	return sp, nil
}

// CompilePlan compiles a single pipeline through the DAG pass and returns
// a plan with the standard single-pipeline invariant restored: the output
// node is last, so interp.New and ir.Compile accept it unchanged.
func CompilePlan(cat *core.Catalog, opts CompileOptions, plan *core.Plan) (*core.Plan, CompileStats, error) {
	sp, err := CompilePlans(cat, opts, plan)
	if err != nil {
		return nil, CompileStats{}, err
	}
	p, out := sp.Plan, sp.Outputs[0].Out
	if out != len(p.Nodes) {
		// Cannot happen: a single plan's lowered nodes are exactly the
		// output's ancestors in topological (creation) order, so the
		// output is always last. Guarded so a future rewrite that breaks
		// the invariant fails loudly instead of corrupting execution.
		return nil, CompileStats{}, fmt.Errorf("ir: internal: output node %d not last of %d", out, len(p.Nodes))
	}
	return p, sp.Stats, nil
}

// sharedName labels the merged plan after its constituents.
func sharedName(plans []*core.Plan) string {
	if len(plans) == 1 {
		return plans[0].Name
	}
	names := make([]string, len(plans))
	for i, p := range plans {
		names[i] = p.Name
	}
	return "shared(" + strings.Join(names, "+") + ")"
}

// buildDAG rebuilds the plans as one hash-consed DAG, applying the
// enabled rewrites node by node. Plans are processed in order and each
// plan's nodes in ID (= topological) order, so every parent already has
// its final, rewritten form when a node is built — the local rules reach
// their fixpoint in one pass. Returns the graph, each plan's output node,
// and the rewrite stats.
func buildDAG(opts CompileOptions, plans []*core.Plan) (*DAG, []*DAGNode, CompileStats) {
	d := NewDAG()
	outs := make([]*DAGNode, len(plans))
	var st CompileStats
	for pi, plan := range plans {
		local := make(map[int]*DAGNode, len(plan.Nodes))
		for i := range plan.Nodes {
			n := &plan.Nodes[i]
			st.InNodes++
			parents := make([]*DAGNode, len(n.Inputs))
			for j, ref := range n.Inputs {
				if ref.FromChannel() {
					parents[j] = d.Source(ref.Channel)
				} else {
					parents[j] = local[ref.Node]
				}
			}
			params := n.Params
			if !opts.NoFold {
				if canon := canonicalParams(n.Kind, params); canon != nil {
					params = canon
					st.CanonNodes++
				}
				if folded := foldNode(n.Kind, parents); folded != nil {
					local[n.ID] = folded
					st.FoldedNodes++
					continue
				}
				if n.Kind == core.KindAnd {
					if dd := dedupParents(parents); len(dd) < len(parents) {
						st.FoldedNodes++
						if len(dd) == 1 {
							local[n.ID] = dd[0]
							continue
						}
						parents = dd
					}
				}
			}
			if !opts.NoFuse {
				if fp, gp := fuseThreshold(n.Kind, params, parents); fp != nil {
					st.FusedNodes++
					params, parents = fp, gp
				}
			}
			nd, fresh := d.Stage(n.Kind, params, parents, nodeFacts{
				cost:    n.Cost,
				rate:    n.Rate,
				outRate: n.OutRate,
				memory:  n.Memory,
			}, opts.NoCSE)
			if !fresh {
				st.SharedNodes++
			}
			local[n.ID] = nd
		}
		outs[pi] = local[plan.OutputNode()]
	}
	return d, outs, st
}

// canonicalParams returns the canonical parameter spelling for kinds with
// redundant encodings, or nil when params are already canonical. The only
// such kind today is window: the catalog defines step=0 as "step equals
// size" (tumbling window), and every consumer — cost, memory, rate factor
// and the runtime instance — treats the two identically, so the explicit
// spelling is substituted to make the equivalent windows structurally
// equal.
func canonicalParams(kind core.AlgorithmKind, p core.Params) core.Params {
	if kind != core.KindWindow || p.Int("step") != 0 {
		return nil
	}
	c := p.Clone()
	c["step"] = core.Number(float64(p.Int("size")))
	return c
}

// foldNode applies the unary identity folds, returning the node the
// current plan node collapses onto (or nil). abs∘abs is the only one:
// |x| is idempotent, so the second abs emits its input bit-for-bit.
func foldNode(kind core.AlgorithmKind, parents []*DAGNode) *DAGNode {
	if kind == core.KindAbs && len(parents) == 1 &&
		parents[0].Class() == StageNode && parents[0].Kind == core.KindAbs {
		return parents[0]
	}
	return nil
}

// dedupParents removes duplicate inputs of an and-aggregation (identical
// nodes are pointer-equal after hash-consing). Sound and bit-exact: the
// join fires when every port has a value for an emission index —
// duplicate ports fill on the same emission — and min over a multiset
// equals min over its distinct values.
func dedupParents(parents []*DAGNode) []*DAGNode {
	out := parents[:0:0]
	for _, p := range parents {
		dup := false
		for _, q := range out {
			if p == q {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// fuseThreshold fuses a threshold whose single parent is a same-kind,
// sustain=1 threshold, returning the fused parameters and the
// grandparent inputs (or nils). The compose rules are exact on every
// input, in both precisions:
//
//	min(a)∘min(b)  = min(max(a,b))   v≥a ∧ v≥b  ⇔  v≥max(a,b)
//	max(a)∘max(b)  = max(min(a,b))   v≤a ∧ v≤b  ⇔  v≤min(a,b)
//	band∘band      = band(intersection), skipped when empty (an empty
//	                 band is unrepresentable; the unfused chain stays)
//
// Thresholds pass admitted values unchanged, so the fused gate's output
// stream is bit-identical. Q15 gates quantize their bounds and the
// compared value; quantization is monotone, so it commutes with max/min
// over the bounds and the admitted set is unchanged there too. Sustain
// counters are not composable (the second gate counts the first gate's
// emissions, not raw samples), hence the sustain=1 requirement on both.
func fuseThreshold(kind core.AlgorithmKind, params core.Params, parents []*DAGNode) (core.Params, []*DAGNode) {
	switch kind {
	case core.KindMinThreshold, core.KindMaxThreshold, core.KindBandThreshold:
	default:
		return nil, nil
	}
	if len(parents) != 1 {
		return nil, nil
	}
	par := parents[0]
	if par.Class() != StageNode || par.Kind != kind ||
		params.Int("sustain") != 1 || par.Params.Int("sustain") != 1 {
		return nil, nil
	}
	fused := params.Clone()
	switch kind {
	case core.KindMinThreshold:
		fused["min"] = core.Number(math.Max(params.Float("min"), par.Params.Float("min")))
	case core.KindMaxThreshold:
		fused["max"] = core.Number(math.Min(params.Float("max"), par.Params.Float("max")))
	case core.KindBandThreshold:
		lo := math.Max(params.Float("min"), par.Params.Float("min"))
		hi := math.Min(params.Float("max"), par.Params.Float("max"))
		if lo > hi {
			return nil, nil
		}
		fused["min"], fused["max"] = core.Number(lo), core.Number(hi)
	}
	return fused, append([]*DAGNode(nil), par.Parents()...)
}
