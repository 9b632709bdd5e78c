package adapt

import (
	"fmt"
	"math"

	"sidewinder/internal/core"
)

// Reparameterize applies a knob proposal to a validated plan and returns a
// freshly resolved plan: a decimate stage per sensor channel at the branch
// heads (when Decimation > 1), window sizes and steps scaled by
// WindowScale, and the final admission stage tightened by ThresholdFactor.
// Every node is re-resolved through core.ResolveNode, so rates, costs and
// memory are recomputed from scratch — the result is costed exactly like a
// fresh push, which is what lets admission be re-checked honestly.
// The base plan is never mutated.
func Reparameterize(cat *core.Catalog, base *core.Plan, k Knobs) (*core.Plan, error) {
	if base == nil || len(base.Nodes) == 0 {
		return nil, fmt.Errorf("adapt: no plan to reparameterize")
	}
	if k.Decimation < 1 {
		return nil, fmt.Errorf("adapt: decimation %d out of range", k.Decimation)
	}
	if k.WindowScale <= 0 {
		return nil, fmt.Errorf("adapt: window scale %g out of range", k.WindowScale)
	}
	if k.ThresholdFactor != 0 && k.ThresholdFactor < 1 {
		return nil, fmt.Errorf("adapt: threshold factor %g below 1", k.ThresholdFactor)
	}

	out := &core.Plan{
		Name:     base.Name,
		Channels: append([]core.SensorChannel(nil), base.Channels...),
	}
	nextID := 1

	// Branch heads: each channel feeds through one decimator (or straight
	// through at factor 1).
	chanIn := make(map[core.SensorChannel]core.ResolvedInput, len(base.Channels))
	for _, ch := range base.Channels {
		if k.Decimation == 1 {
			chanIn[ch] = core.ChannelInput(ch)
			continue
		}
		node, err := core.ResolveNode(cat, nextID, core.KindDecimate,
			core.Params{"factor": core.Number(float64(k.Decimation))},
			[]core.ResolvedInput{core.ChannelInput(ch)})
		if err != nil {
			return nil, fmt.Errorf("adapt: decimator for %s: %w", ch, err)
		}
		out.Nodes = append(out.Nodes, node)
		chanIn[ch] = node.Output()
		nextID++
	}

	// Re-resolve the base nodes in topological order (plan node order),
	// remapping input references through the inserted decimators.
	nodeOut := make(map[int]core.ResolvedInput, len(base.Nodes))
	for i := range base.Nodes {
		n := &base.Nodes[i]
		params := n.Params.Clone()
		if n.Kind == core.KindWindow && k.WindowScale != 1 {
			scaleWindow(params, k.WindowScale)
		}
		if i == len(base.Nodes)-1 && k.ThresholdFactor > 1 {
			TightenFinal(n.Kind, params, k.ThresholdFactor)
		}
		inputs := make([]core.ResolvedInput, len(n.Inputs))
		for j, ref := range n.Inputs {
			if ref.FromChannel() {
				inputs[j] = chanIn[ref.Channel]
			} else {
				in, ok := nodeOut[ref.Node]
				if !ok {
					return nil, fmt.Errorf("adapt: node %d references unresolved node %d", n.ID, ref.Node)
				}
				inputs[j] = in
			}
		}
		node, err := core.ResolveNode(cat, nextID, n.Kind, params, inputs)
		if err != nil {
			return nil, fmt.Errorf("adapt: node %d (%s): %w", n.ID, n.Kind, err)
		}
		out.Nodes = append(out.Nodes, node)
		nodeOut[n.ID] = node.Output()
		nextID++
	}
	return out, nil
}

// scaleWindow stretches a window stage's size and step, keeping step within
// size and both at least 1. Step 0 means "step = size" and stays 0 so the
// non-overlapping semantics survive scaling.
func scaleWindow(params core.Params, scale float64) {
	size := int(math.Round(float64(params.Int("size")) * scale))
	if size < 1 {
		size = 1
	}
	step := params.Int("step")
	if step != 0 {
		step = int(math.Round(float64(step) * scale))
		if step < 1 {
			step = 1
		}
		if step > size {
			step = size
		}
	}
	params["size"] = core.Number(float64(size))
	params["step"] = core.Number(float64(step))
}

// TightenFinal tightens a final admission-control stage's parameters in
// place by the strictness factor and reports whether anything changed.
// Factor 1 (or an untunable kind — aggregators, parameter-free stages)
// leaves the parameters alone. This is the single tightening rule behind
// the engine's threshold axis: minimum thresholds rise, maximum thresholds
// fall, bands shrink symmetrically at half rate (bands are fragile).
func TightenFinal(kind core.AlgorithmKind, params core.Params, factor float64) bool {
	if factor == 1 {
		return false
	}
	switch kind {
	case core.KindMinThreshold:
		params["min"] = core.Number(tighten(params.Float("min"), factor, +1))
	case core.KindMaxThreshold:
		params["max"] = core.Number(tighten(params.Float("max"), factor, -1))
	case core.KindBandThreshold:
		lo, hi := params.Float("min"), params.Float("max")
		width := hi - lo
		shrink := width * (factor - 1) / 2 * 0.5
		if shrink <= 0 || lo+shrink > hi-shrink {
			return false
		}
		params["min"] = core.Number(lo + shrink)
		params["max"] = core.Number(hi - shrink)
	default:
		return false
	}
	return true
}

// tighten moves a threshold in the stricter direction (dir +1 raises a
// minimum, -1 lowers a maximum) proportionally to its magnitude. A zero
// threshold has no scale reference and is left alone.
func tighten(v, factor, dir float64) float64 {
	if v == 0 {
		return 0
	}
	return v + dir*math.Abs(v)*(factor-1)
}
