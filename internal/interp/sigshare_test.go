package interp

import (
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// This file keeps the pre-DAG form of cross-app sharing as a test
// reference: structurally identical nodes are deduplicated by signature,
// with no folding or fusion, and the result runs on the same engine as the
// DAG compile pass's output. Equivalence tests compare the compile pass
// against it.

// signature returns the canonical identity of a plan node: algorithm,
// normalized parameters, and input identities. Nodes with equal signatures
// compute identical values on identical sensor input.
func signature(plan *core.Plan, id int, memo map[int]string) string {
	if s, ok := memo[id]; ok {
		return s
	}
	n := plan.Node(id)
	sig := core.Stage{Kind: n.Kind, Params: n.Params}.String() + "("
	for _, in := range n.Inputs {
		if in.FromChannel() {
			sig += string(in.Channel) + ";"
		} else {
			sig += signature(plan, in.Node, memo) + ";"
		}
	}
	sig += ")"
	memo[id] = sig
	return sig
}

// signatureShare lowers the plans to one shared plan in which nodes with
// equal signatures appear once, in first-occurrence order. Stats report
// the signature hits as the eliminated nodes.
func signatureShare(plans ...*core.Plan) (*ir.SharedPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("signature share needs at least one plan")
	}
	shared := &core.Plan{Name: "signature-shared"}
	sp := &ir.SharedPlan{Plan: shared, Sources: plans}
	bySig := make(map[string]int) // signature -> shared node ID
	seenCh := make(map[core.SensorChannel]bool)
	for _, plan := range plans {
		memo := make(map[int]string, len(plan.Nodes))
		local := make(map[int]int, len(plan.Nodes)) // plan ID -> shared ID
		for _, n := range plan.Nodes {
			sp.Stats.InNodes++
			sig := signature(plan, n.ID, memo)
			if id, ok := bySig[sig]; ok {
				local[n.ID] = id
				continue
			}
			ins := make([]core.InputRef, len(n.Inputs))
			for j, ref := range n.Inputs {
				if ref.FromChannel() {
					if !seenCh[ref.Channel] {
						seenCh[ref.Channel] = true
						shared.Channels = append(shared.Channels, ref.Channel)
					}
					ins[j] = ref
				} else {
					ins[j] = core.InputRef{Node: local[ref.Node]}
				}
			}
			planID := n.ID
			n.ID, n.Inputs = len(shared.Nodes)+1, ins
			shared.Nodes = append(shared.Nodes, n)
			bySig[sig] = n.ID
			local[planID] = n.ID
		}
		sp.Outputs = append(sp.Outputs, ir.AppOut{Name: plan.Name, Out: local[plan.OutputNode()]})
	}
	sp.Stats.OutNodes = len(shared.Nodes)
	return sp, nil
}

// newSignatureMerged runs the signature-shared lowering of the plans on
// the engine.
func newSignatureMerged(prec Precision, plans ...*core.Plan) (*Merged, error) {
	sp, err := signatureShare(plans...)
	if err != nil {
		return nil, err
	}
	return NewShared(prec, sp)
}
