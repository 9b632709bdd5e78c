package core

import (
	"fmt"
	"strings"
)

// Stage is one parameterized algorithm instance in a pipeline. At the API
// level stages are stubs (paper §3.2): the implementation lives on the hub.
type Stage struct {
	Kind   AlgorithmKind
	Params Params
}

// String renders the stage as kind(params) with deterministic parameter
// order.
func (s Stage) String() string {
	if len(s.Params) == 0 {
		return string(s.Kind)
	}
	parts := make([]string, 0, len(s.Params))
	for _, name := range s.Params.sortedNames() {
		parts = append(parts, fmt.Sprintf("%s=%s", name, s.Params[name]))
	}
	return fmt.Sprintf("%s(%s)", s.Kind, strings.Join(parts, ", "))
}

// Branch is a ProcessingBranch (paper §3.2): a flow of data from one sensor
// channel through a chain of single-input algorithms.
type Branch struct {
	source SensorChannel
	stages []Stage
}

// NewBranch returns a branch rooted at the given sensor channel.
func NewBranch(source SensorChannel) *Branch {
	return &Branch{source: source}
}

// Add appends a stage to the branch and returns the branch for chaining.
func (b *Branch) Add(s Stage) *Branch {
	b.stages = append(b.stages, s)
	return b
}

// Source returns the branch's sensor channel.
func (b *Branch) Source() SensorChannel { return b.source }

// Stages returns the branch's stages in order.
func (b *Branch) Stages() []Stage { return b.stages }

// Pipeline is a ProcessingPipeline (paper §3.2): the entire wake-up
// condition from input sensors to the final output. It consists of one or
// more branches followed by tail stages; the first tail stage merges all
// branches (and must therefore be an aggregation algorithm when more than
// one branch exists), and subsequent tail stages are single-input.
type Pipeline struct {
	name     string
	branches []*Branch
	tail     []Stage
}

// NewPipeline returns an empty pipeline. The optional name labels the
// condition in diagnostics and IR comments.
func NewPipeline(name string) *Pipeline {
	return &Pipeline{name: name}
}

// Name returns the pipeline's label.
func (p *Pipeline) Name() string { return p.name }

// AddBranch appends branches to the pipeline.
func (p *Pipeline) AddBranch(branches ...*Branch) *Pipeline {
	p.branches = append(p.branches, branches...)
	return p
}

// Add appends a stage after the branch-merge point, mirroring the paper's
// ProcessingPipeline.add(algorithm).
func (p *Pipeline) Add(s Stage) *Pipeline {
	p.tail = append(p.tail, s)
	return p
}

// Branches returns the pipeline's branches.
func (p *Pipeline) Branches() []*Branch { return p.branches }

// Tail returns the post-merge stages.
func (p *Pipeline) Tail() []Stage { return p.tail }

// InputRef identifies where a plan node's input comes from: a sensor
// channel or an upstream node.
type InputRef struct {
	Channel SensorChannel // set when the input is a raw sensor channel
	Node    int           // upstream node ID when Channel is empty
}

// FromChannel reports whether the input is a raw sensor channel.
func (r InputRef) FromChannel() bool { return r.Channel != "" }

// String renders the reference as it appears in the IR source list.
func (r InputRef) String() string {
	if r.FromChannel() {
		return string(r.Channel)
	}
	return fmt.Sprintf("%d", r.Node)
}

// PlanNode is one validated, fully resolved algorithm instance.
type PlanNode struct {
	ID     int
	Kind   AlgorithmKind
	Params Params // normalized: defaults filled, values checked
	Inputs []InputRef
	Meta   *Meta

	// Resolved dataflow facts used by feasibility checks and the
	// interpreter.
	InKind  ValueKind
	OutKind ValueKind
	InLen   int // input vector length (0 for scalar inputs)
	OutLen  int // output vector length (0 for scalar outputs)

	// Rate is the node's invocation rate in Hz (worst case); OutRate is
	// its emission rate.
	Rate    float64
	OutRate float64

	// Cost is the per-invocation work; Memory the per-instance hub RAM.
	Cost   CostEstimate
	Memory int
}

// Plan is a validated pipeline: nodes in topological order with IDs
// assigned exactly as the IR compiler will emit them (1-based, matching
// paper Fig. 2c). The last node feeds OUT.
type Plan struct {
	Name     string
	Nodes    []PlanNode
	Channels []SensorChannel // unique channels in first-use order
}

// OutputNode returns the ID of the node feeding OUT.
func (p *Plan) OutputNode() int { return p.Nodes[len(p.Nodes)-1].ID }

// Node returns the plan node with the given ID, or nil.
func (p *Plan) Node(id int) *PlanNode {
	if id < 1 || id > len(p.Nodes) {
		return nil
	}
	return &p.Nodes[id-1]
}

// ResolvedInput describes one already-resolved input edge of a node being
// validated: where it comes from and what flows over it.
type ResolvedInput struct {
	Ref    InputRef
	Kind   ValueKind
	VecLen int     // vector length (0 for scalar edges)
	Rate   float64 // emission rate in Hz
}

// ResolveNode validates one algorithm instance against the catalog given
// its resolved inputs, and returns the fully resolved plan node with the
// given ID. It is the single source of truth for arity, kind, parameter
// and rate checking, shared by Pipeline.Validate and the IR binder.
func ResolveNode(cat *Catalog, id int, kind AlgorithmKind, raw Params, inputs []ResolvedInput) (PlanNode, error) {
	meta, err := cat.Get(kind)
	if err != nil {
		return PlanNode{}, err
	}
	if len(inputs) < meta.MinInputs {
		return PlanNode{}, fmt.Errorf("core: %s requires at least %d inputs, got %d", kind, meta.MinInputs, len(inputs))
	}
	if meta.MaxInputs >= 0 && len(inputs) > meta.MaxInputs {
		return PlanNode{}, fmt.Errorf("core: %s accepts at most %d inputs, got %d", kind, meta.MaxInputs, len(inputs))
	}
	params, err := raw.normalize(string(kind), meta.Params)
	if err != nil {
		return PlanNode{}, err
	}
	if err := checkCrossParams(kind, params); err != nil {
		return PlanNode{}, err
	}
	inLen := 0
	rate := 0.0
	for i, in := range inputs {
		if in.Kind != meta.In {
			return PlanNode{}, fmt.Errorf("core: %s input %d is %s, requires %s", kind, i+1, in.Kind, meta.In)
		}
		if i == 0 {
			inLen, rate = in.VecLen, in.Rate
			continue
		}
		if in.VecLen != inLen {
			return PlanNode{}, fmt.Errorf("core: %s merges vectors of different lengths (%d vs %d)", kind, inLen, in.VecLen)
		}
		if in.Rate != rate {
			return PlanNode{}, fmt.Errorf("core: %s merges branches with different emission rates (%g Hz vs %g Hz)", kind, rate, in.Rate)
		}
	}
	refs := make([]InputRef, len(inputs))
	for i, in := range inputs {
		refs[i] = in.Ref
	}
	outLen := 0
	if meta.Out == Vector {
		outLen = meta.OutLen(params, inLen)
		if outLen <= 0 {
			return PlanNode{}, fmt.Errorf("core: %s produces empty vectors", kind)
		}
	}
	return PlanNode{
		ID:      id,
		Kind:    kind,
		Params:  params,
		Inputs:  refs,
		Meta:    meta,
		InKind:  meta.In,
		OutKind: meta.Out,
		InLen:   inLen,
		OutLen:  outLen,
		Rate:    rate,
		OutRate: rate * meta.RateFactor(params),
		Cost:    meta.Cost(params, inLen),
		Memory:  meta.Memory(params, inLen),
	}, nil
}

// Output returns the node's emission as a ResolvedInput for downstream
// consumers.
func (n *PlanNode) Output() ResolvedInput {
	return ResolvedInput{
		Ref:    InputRef{Node: n.ID},
		Kind:   n.OutKind,
		VecLen: n.OutLen,
		Rate:   n.OutRate,
	}
}

// ChannelInput returns the ResolvedInput for a raw sensor channel.
func ChannelInput(c SensorChannel) ResolvedInput {
	return ResolvedInput{
		Ref:  InputRef{Channel: c},
		Kind: Scalar,
		Rate: c.Rate(),
	}
}

// Validate checks the pipeline against the platform catalog and resolves it
// into a Plan. It enforces the structural rules of paper §3.2 and the
// parameter schemas of §3.6.
func (p *Pipeline) Validate(cat *Catalog) (*Plan, error) {
	if len(p.branches) == 0 {
		return nil, fmt.Errorf("core: pipeline %q has no branches", p.name)
	}
	plan := &Plan{Name: p.name}
	seen := make(map[SensorChannel]bool)

	type edge = ResolvedInput
	ends := make([]edge, 0, len(p.branches))

	addNode := func(s Stage, inputs []edge) (edge, error) {
		node, err := ResolveNode(cat, len(plan.Nodes)+1, s.Kind, s.Params, inputs)
		if err != nil {
			return edge{}, err
		}
		plan.Nodes = append(plan.Nodes, node)
		return node.Output(), nil
	}

	for bi, b := range p.branches {
		if b == nil || len(b.stages) == 0 && len(p.branches) > 1 && len(p.tail) == 0 {
			return nil, fmt.Errorf("core: branch %d is empty with no aggregation tail", bi+1)
		}
		if !b.source.Valid() {
			return nil, fmt.Errorf("core: branch %d has invalid sensor channel %q", bi+1, b.source)
		}
		if !seen[b.source] {
			seen[b.source] = true
			plan.Channels = append(plan.Channels, b.source)
		}
		cur := ChannelInput(b.source)
		for si, s := range b.stages {
			meta, err := cat.Get(s.Kind)
			if err != nil {
				return nil, fmt.Errorf("core: branch %d stage %d: %w", bi+1, si+1, err)
			}
			if meta.MinInputs > 1 {
				return nil, fmt.Errorf("core: branch %d stage %d: %s is an aggregator and cannot appear inside a branch", bi+1, si+1, s.Kind)
			}
			cur, err = addNode(s, []edge{cur})
			if err != nil {
				return nil, fmt.Errorf("core: branch %d stage %d: %w", bi+1, si+1, err)
			}
		}
		ends = append(ends, cur)
	}

	// Tail: the first stage merges all branch ends; later stages are
	// single-input.
	if len(ends) > 1 && len(p.tail) == 0 {
		return nil, fmt.Errorf("core: pipeline %q leaves %d branches unmerged; aggregation algorithms must reduce them to one (paper §3.2)", p.name, len(ends))
	}
	cur := ends[0]
	for ti, s := range p.tail {
		inputs := []edge{cur}
		if ti == 0 && len(ends) > 1 {
			inputs = ends
		}
		var err error
		cur, err = addNode(s, inputs)
		if err != nil {
			return nil, fmt.Errorf("core: tail stage %d: %w", ti+1, err)
		}
	}
	if cur.Kind != Scalar {
		return nil, fmt.Errorf("core: pipeline %q output is a %s; the wake-up signal fed to OUT must be scalar", p.name, cur.Kind)
	}
	if len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("core: pipeline %q contains no algorithms", p.name)
	}
	return plan, nil
}

// checkCrossParams enforces relationships between parameters that the
// per-parameter schema cannot express.
func checkCrossParams(kind AlgorithmKind, p Params) error {
	switch kind {
	case KindWindow:
		size, step := p.Int("size"), p.Int("step")
		if step > size {
			return fmt.Errorf("core: window step %d exceeds size %d", step, size)
		}
	case KindBandThreshold:
		if p.Float("min") > p.Float("max") {
			return fmt.Errorf("core: bandThreshold min %g > max %g", p.Float("min"), p.Float("max"))
		}
	case KindTonality:
		if p.Float("bandLow") > p.Float("bandHigh") {
			return fmt.Errorf("core: tonality bandLow %g > bandHigh %g", p.Float("bandLow"), p.Float("bandHigh"))
		}
	case KindLowPass, KindHighPass:
		b := p.Int("block")
		if b&(b-1) != 0 {
			return fmt.Errorf("core: %s block %d must be a power of two", kind, b)
		}
	case KindIIRLowPass, KindIIRHighPass:
		if p.Float("cutoff") >= p.Float("rate")/2 {
			return fmt.Errorf("core: %s cutoff %g Hz at or above Nyquist (%g)", kind, p.Float("cutoff"), p.Float("rate")/2)
		}
	case KindGoertzelBank:
		if p.Float("bandLow") > p.Float("bandHigh") {
			return fmt.Errorf("core: goertzelBank bandLow %g > bandHigh %g", p.Float("bandLow"), p.Float("bandHigh"))
		}
		if p.Float("bandHigh") >= p.Float("rate")/2 {
			return fmt.Errorf("core: goertzelBank bandHigh %g Hz at or above Nyquist (%g)", p.Float("bandHigh"), p.Float("rate")/2)
		}
	case KindZCRVariance:
		// sub-window count is bounded by the window length at runtime;
		// nothing to check statically.
	}
	return nil
}
