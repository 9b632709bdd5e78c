package ir

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"sidewinder/internal/core"
)

// This file gives the IR its graph form. The textual IR (ir.go) and the
// validated core.Plan are linear: a flat statement list whose sharing is
// implicit in node references. The DAG makes the sharing first-class:
// typed nodes with explicit parent/child edges, each carrying a stable
// structural identity (a canonical key and an FNV-1a hash of it), so the
// compile pass (compile.go) can hash-cons structurally identical
// subgraphs across every resident application's pipeline and bill and
// execute them exactly once.

// NodeClass distinguishes the two DAG node types.
type NodeClass int

const (
	// SourceNode is a raw sensor channel feeding the graph.
	SourceNode NodeClass = iota
	// StageNode is one algorithm instance.
	StageNode
)

// String returns the class name for diagnostics.
func (c NodeClass) String() string {
	switch c {
	case SourceNode:
		return "source"
	case StageNode:
		return "stage"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// nodeFacts are the static demand facts a stage node carries, copied from
// the originating (already validated) plan node so demand analysis never
// needs a catalog. Two nodes with equal keys have equal facts: the key
// encodes the kind, the normalized parameters and the full upstream
// structure down to the channels, which together determine cost, rate and
// memory.
type nodeFacts struct {
	cost    core.CostEstimate
	rate    float64 // invocation rate, Hz
	outRate float64 // emission rate, Hz
	memory  int     // instance state, bytes
}

// DAGNode is one vertex of the pipeline DAG: a sensor channel source or a
// parameterized algorithm stage, linked to its producers (parents) and
// consumers (children).
type DAGNode struct {
	id    int
	class NodeClass

	// Channel is set for source nodes.
	Channel core.SensorChannel
	// Kind and Params describe stage nodes; Params are normalized (and,
	// after folding, canonical).
	Kind   core.AlgorithmKind
	Params core.Params

	// Key is the canonical structural identity: the stage rendering plus
	// the recursively rendered parent keys. Nodes with equal keys compute
	// identical values on identical sensor input. The format matches the
	// per-node signature of package interp's signature-sharing test
	// reference, so the two agree term for term.
	Key string
	// Hash is the 64-bit FNV-1a of Key — the stable structural hash shown
	// in dot exports and diagnostics.
	Hash uint64

	parents  []*DAGNode
	children []*DAGNode

	facts nodeFacts
}

// ID returns the node's creation index (0-based). Parents always have
// smaller IDs than their children, so creation order is a topological
// order.
func (n *DAGNode) ID() int { return n.id }

// Class reports whether the node is a source or a stage.
func (n *DAGNode) Class() NodeClass { return n.class }

// Parents returns the node's producers in port order.
func (n *DAGNode) Parents() []*DAGNode { return n.parents }

// Cost returns the node's per-invocation work (stage nodes).
func (n *DAGNode) Cost() core.CostEstimate { return n.facts.cost }

// Rate returns the node's invocation rate in Hz (stage nodes).
func (n *DAGNode) Rate() float64 { return n.facts.rate }

// OutRate returns the node's emission rate in Hz (stage nodes).
func (n *DAGNode) OutRate() float64 { return n.facts.outRate }

// Memory returns the node's instance state size in bytes (stage nodes).
func (n *DAGNode) Memory() int { return n.facts.memory }

// Label renders the node for display: the channel name for sources, the
// parameterized stage for stages.
func (n *DAGNode) Label() string {
	if n.class == SourceNode {
		return string(n.Channel)
	}
	return core.Stage{Kind: n.Kind, Params: n.Params}.String()
}

// DAG is a hash-consing builder of pipeline graphs: Source and Stage
// return the existing node when one with the same structural key was
// already created, so identical subgraphs — within one pipeline or across
// many — collapse to shared vertices as the graph is built.
type DAG struct {
	nodes []*DAGNode
	byKey map[string]*DAGNode
	uniq  int
}

// NewDAG returns an empty graph.
func NewDAG() *DAG {
	return &DAG{byKey: make(map[string]*DAGNode)}
}

// Nodes returns every node in creation (= topological) order.
func (d *DAG) Nodes() []*DAGNode { return d.nodes }

// Len returns the node count.
func (d *DAG) Len() int { return len(d.nodes) }

// Source returns the node for a sensor channel, creating it on first use.
// A channel's key is its name: the channel IS its structural identity.
func (d *DAG) Source(ch core.SensorChannel) *DAGNode {
	key := string(ch)
	if n, ok := d.byKey[key]; ok {
		return n
	}
	n := &DAGNode{
		id:      len(d.nodes),
		class:   SourceNode,
		Channel: ch,
		Key:     key,
		Hash:    hashKey(key),
	}
	d.nodes = append(d.nodes, n)
	d.byKey[key] = n
	return n
}

// Stage adds (or finds) the stage node with the given kind, normalized
// parameters and parents. The second result reports whether the node is
// fresh; false means an existing structurally identical node was reused.
// With unique set, hash-consing is suppressed and a fresh node is always
// created (the no-CSE baseline).
//
// For the one exactly-commutative aggregator (`and`, which emits the
// minimum of its synchronized inputs), parents are canonicalized into
// key order so and(A,B) and and(B,A) share one node; all other kinds keep
// the caller's port order.
func (d *DAG) Stage(kind core.AlgorithmKind, params core.Params, parents []*DAGNode, facts nodeFacts, unique bool) (*DAGNode, bool) {
	parents = append([]*DAGNode(nil), parents...)
	if kind == core.KindAnd {
		sort.SliceStable(parents, func(i, j int) bool { return parents[i].Key < parents[j].Key })
	}
	key := stageKey(kind, params, parents)
	if unique {
		key = fmt.Sprintf("%s#%d", key, d.uniq)
		d.uniq++
	} else if n, ok := d.byKey[key]; ok {
		return n, false
	}
	n := &DAGNode{
		id:      len(d.nodes),
		class:   StageNode,
		Kind:    kind,
		Params:  params,
		Key:     key,
		Hash:    hashKey(key),
		parents: parents,
		facts:   facts,
	}
	d.nodes = append(d.nodes, n)
	d.byKey[key] = n
	for _, p := range parents {
		p.children = append(p.children, n)
	}
	return n, true
}

// stageKey renders a stage node's canonical structural key:
// kind(param=value, ...)(parentKey;parentKey;...). The rendering matches
// the per-node signature of package interp's signature-sharing test
// reference so both agree on what "structurally identical" means.
func stageKey(kind core.AlgorithmKind, params core.Params, parents []*DAGNode) string {
	var b strings.Builder
	b.WriteString(core.Stage{Kind: kind, Params: params}.String())
	b.WriteByte('(')
	for _, p := range parents {
		b.WriteString(p.Key)
		b.WriteByte(';')
	}
	b.WriteByte(')')
	return b.String()
}

// hashKey is the stable structural hash: 64-bit FNV-1a over the canonical
// key bytes.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Validate checks the graph's structural invariants: parent IDs strictly
// precede child IDs (which proves acyclicity — creation order is a
// topological order), edges are symmetric, and keys are unique.
func (d *DAG) Validate() error {
	keys := make(map[string]int, len(d.nodes))
	for i, n := range d.nodes {
		if n.id != i {
			return fmt.Errorf("ir: dag node %d carries id %d", i, n.id)
		}
		if prev, dup := keys[n.Key]; dup {
			return fmt.Errorf("ir: dag nodes %d and %d share key %q", prev, i, n.Key)
		}
		keys[n.Key] = i
		for _, p := range n.parents {
			if p.id >= n.id {
				return fmt.Errorf("ir: dag node %d has parent %d out of topological order", n.id, p.id)
			}
			if !hasChild(p, n) {
				return fmt.Errorf("ir: dag edge %d->%d missing child back-link", p.id, n.id)
			}
		}
		for _, c := range n.children {
			if c.id <= n.id {
				return fmt.Errorf("ir: dag node %d has child %d out of topological order", n.id, c.id)
			}
		}
		if n.class == SourceNode && len(n.parents) > 0 {
			return fmt.Errorf("ir: source node %d has parents", n.id)
		}
	}
	return nil
}

func hasChild(p, n *DAGNode) bool {
	for _, c := range p.children {
		if c == n {
			return true
		}
	}
	return false
}
