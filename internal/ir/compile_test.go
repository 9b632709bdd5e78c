package ir

import (
	"strings"
	"testing"

	"sidewinder/internal/core"
)

// Unit tests for the DAG compile pass's individual rewrites. The
// end-to-end guarantee — that none of these change observable wakes — is
// pinned by TestDAGLinearEquivalence in package interp; here we pin that
// each rewrite actually fires on the shapes it claims, and only there.

func mustValidate(t *testing.T, p *core.Pipeline) *core.Plan {
	t.Helper()
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return plan
}

func mustCompile(t *testing.T, opts CompileOptions, p *core.Pipeline) (*core.Plan, CompileStats) {
	t.Helper()
	plan, stats, err := CompilePlan(core.DefaultCatalog(), opts, mustValidate(t, p))
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name(), err)
	}
	return plan, stats
}

func kinds(p *core.Plan) []core.AlgorithmKind {
	out := make([]core.AlgorithmKind, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Kind
	}
	return out
}

func TestWindowStepCanonicalization(t *testing.T) {
	// step=0 and step=size are the same tumbling window by catalog
	// definition; canonicalization must make the two spellings one node
	// across plans.
	mk := func(name string, step int) *core.Pipeline {
		p := core.NewPipeline(name)
		p.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(32, step, "rectangular")).
			Add(core.Stat("rms")).
			Add(core.MinThreshold(0.5)))
		return p
	}
	a, b := mustValidate(t, mk("implicit", 0)), mustValidate(t, mk("explicit", 32))
	sp, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stats.CanonNodes != 1 {
		t.Fatalf("canonicalized %d nodes, want 1 (the step=0 window)", sp.Stats.CanonNodes)
	}
	if got, want := sp.Stats.Eliminated(), len(b.Nodes); got != want {
		t.Fatalf("eliminated %d nodes, want the whole duplicate pipeline (%d)", got, want)
	}
	if sp.Outputs[0].Out != sp.Outputs[1].Out {
		t.Fatalf("outputs %d and %d should share one node", sp.Outputs[0].Out, sp.Outputs[1].Out)
	}
	if step := sp.Plan.Nodes[0].Params.Int("step"); step != 32 {
		t.Fatalf("lowered window step = %d, want canonical 32", step)
	}
	// With folding ablated the spellings stay distinct.
	spNF, err := CompilePlans(core.DefaultCatalog(), CompileOptions{NoFold: true}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if spNF.Stats.Eliminated() != 0 {
		t.Fatalf("NoFold still eliminated %d nodes", spNF.Stats.Eliminated())
	}
}

func TestAbsAbsFold(t *testing.T) {
	p := core.NewPipeline("abs-abs")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Abs()).
		Add(core.Abs()).
		Add(core.MinThreshold(1)))
	compiled, stats := mustCompile(t, CompileOptions{}, p)
	if stats.FoldedNodes != 1 {
		t.Fatalf("folded %d nodes, want 1", stats.FoldedNodes)
	}
	want := []core.AlgorithmKind{core.KindAbs, core.KindMinThreshold}
	if got := kinds(compiled); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("lowered kinds %v, want %v", got, want)
	}
}

func TestAndDuplicateInputCollapse(t *testing.T) {
	// Two structurally identical branches: CSE makes the and's inputs the
	// same node, dedup drops the duplicate, and the single-input and
	// collapses away entirely.
	p := core.NewPipeline("and-dup")
	for i := 0; i < 2; i++ {
		p.AddBranch(core.NewBranch(core.AccelY).
			Add(core.MovingAverage(4)).
			Add(core.MinThreshold(2)))
	}
	p.Add(core.And())
	p.Add(core.MinThresholdSustained(2, 3)) // sustain=3 blocks fusion; isolates the fold
	compiled, stats := mustCompile(t, CompileOptions{}, p)
	if stats.FoldedNodes != 1 {
		t.Fatalf("folded %d nodes, want 1 (the and collapse)", stats.FoldedNodes)
	}
	for _, k := range kinds(compiled) {
		if k == core.KindAnd {
			t.Fatalf("and survived the collapse: %v", kinds(compiled))
		}
	}
	// 6 plan nodes -> movingAvg, minThreshold, sustained gate.
	if len(compiled.Nodes) != 3 {
		t.Fatalf("lowered %d nodes, want 3: %v", len(compiled.Nodes), kinds(compiled))
	}
}

func TestAndInputOrderCanonical(t *testing.T) {
	// and is the one exactly-commutative aggregator (it emits the minimum
	// of its synchronized inputs), so and(A,B) and and(B,A) must share.
	branch := func(thr float64) *core.Branch {
		return core.NewBranch(core.AccelZ).
			Add(core.MovingAverage(8)).
			Add(core.MinThreshold(thr))
	}
	mk := func(name string, first, second float64) *core.Pipeline {
		p := core.NewPipeline(name)
		p.AddBranch(branch(first))
		p.AddBranch(branch(second))
		p.Add(core.And())
		p.Add(core.MinThresholdSustained(1, 2))
		return p
	}
	a, b := mustValidate(t, mk("ab", 1, 3)), mustValidate(t, mk("ba", 3, 1))
	sp, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Plan a already shares its movingAvg prefix across its two branches;
	// on top of that intra-plan elimination, all of b must collapse onto a.
	_, soloStats, err := CompilePlan(core.DefaultCatalog(), CompileOptions{}, mustValidate(t, mk("solo", 1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.Stats.Eliminated(), soloStats.Eliminated()+len(b.Nodes); got != want {
		t.Fatalf("eliminated %d nodes, want %d: and(A,B) must equal and(B,A)", got, want)
	}
	if sp.Outputs[0].Out != sp.Outputs[1].Out {
		t.Fatal("swapped-input and pipelines should share their output node")
	}
}

func TestThresholdFusion(t *testing.T) {
	chain := func(name string, stages ...core.Stage) *core.Pipeline {
		p := core.NewPipeline(name)
		b := core.NewBranch(core.AccelX).Add(core.MovingAverage(4))
		for _, s := range stages {
			b.Add(s)
		}
		p.AddBranch(b)
		return p
	}
	cases := []struct {
		name      string
		pipe      *core.Pipeline
		fused     int
		lastKind  core.AlgorithmKind
		wantParam map[string]float64
	}{
		{
			name:      "min-min keeps larger bound",
			pipe:      chain("minmin", core.MinThreshold(2), core.MinThreshold(5)),
			fused:     1,
			lastKind:  core.KindMinThreshold,
			wantParam: map[string]float64{"min": 5},
		},
		{
			name:      "max-max keeps smaller bound",
			pipe:      chain("maxmax", core.MaxThreshold(5), core.MaxThreshold(2)),
			fused:     1,
			lastKind:  core.KindMaxThreshold,
			wantParam: map[string]float64{"max": 2},
		},
		{
			name:      "band-band intersects",
			pipe:      chain("bandband", core.BandThreshold(1, 6), core.BandThreshold(3, 9)),
			fused:     1,
			lastKind:  core.KindBandThreshold,
			wantParam: map[string]float64{"min": 3, "max": 6},
		},
		{
			name:      "transitive chain fuses to one gate",
			pipe:      chain("minminmin", core.MinThreshold(1), core.MinThreshold(4), core.MinThreshold(3)),
			fused:     2,
			lastKind:  core.KindMinThreshold,
			wantParam: map[string]float64{"min": 4},
		},
		{
			name:     "empty band intersection stays unfused",
			pipe:     chain("bandempty", core.BandThreshold(1, 2), core.BandThreshold(5, 6)),
			fused:    0,
			lastKind: core.KindBandThreshold,
		},
		{
			name:     "sustained gate blocks fusion",
			pipe:     chain("sustained", core.MinThresholdSustained(2, 3), core.MinThreshold(5)),
			fused:    0,
			lastKind: core.KindMinThreshold,
		},
		{
			name:     "mixed kinds stay unfused",
			pipe:     chain("mixed", core.MinThreshold(2), core.MaxThreshold(5)),
			fused:    0,
			lastKind: core.KindMaxThreshold,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, stats := mustCompile(t, CompileOptions{}, tc.pipe)
			if stats.FusedNodes != tc.fused {
				t.Fatalf("fused %d, want %d", stats.FusedNodes, tc.fused)
			}
			last := compiled.Nodes[len(compiled.Nodes)-1]
			if last.Kind != tc.lastKind {
				t.Fatalf("final kind %s, want %s", last.Kind, tc.lastKind)
			}
			for name, want := range tc.wantParam {
				if got := last.Params.Float(name); got != want {
					t.Fatalf("fused %s = %g, want %g", name, got, want)
				}
			}
			// Each fusion removes exactly one gate from the lowered plan
			// (as a pruned intermediate, or by hash-consing onto an
			// already-fused node in transitive chains).
			if stats.Eliminated() != tc.fused {
				t.Fatalf("eliminated %d, want %d", stats.Eliminated(), tc.fused)
			}
			// Ablation: NoFuse leaves the chain intact.
			unfused, nfStats := mustCompile(t, CompileOptions{NoFuse: true}, tc.pipe)
			if nfStats.FusedNodes != 0 {
				t.Fatalf("NoFuse still fused %d", nfStats.FusedNodes)
			}
			if len(unfused.Nodes) < len(compiled.Nodes) {
				t.Fatal("NoFuse lowered fewer nodes than the fused plan")
			}
		})
	}
}

func TestCompileFixpoint(t *testing.T) {
	// Recompiling a compiled plan must be the identity: all rewrites
	// reached their fixpoint in one pass.
	p := core.NewPipeline("fixpoint")
	for i := 0; i < 2; i++ {
		p.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(64, 0, "rectangular")).
			Add(core.Stat("variance")).
			Add(core.MinThreshold(0.1)))
	}
	p.Add(core.And())
	p.Add(core.MinThreshold(0.2))
	compiled, stats := mustCompile(t, CompileOptions{}, p)
	if stats.Eliminated() == 0 {
		t.Fatal("test pipeline should shrink on first compile")
	}
	again, stats2, err := CompilePlan(core.DefaultCatalog(), CompileOptions{}, compiled)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Eliminated() != 0 || stats2.FoldedNodes != 0 || stats2.FusedNodes != 0 || stats2.CanonNodes != 0 {
		t.Fatalf("recompile not a fixpoint: %s", stats2)
	}
	if got, want := CompileToText(again), CompileToText(compiled); got != want {
		t.Fatalf("recompile changed the program:\n--- first\n%s--- second\n%s", want, got)
	}
}

func TestCompileStatsString(t *testing.T) {
	s := CompileStats{InNodes: 7, OutNodes: 5, SharedNodes: 1, FoldedNodes: 1, CanonNodes: 2}
	str := s.String()
	for _, frag := range []string{"7 -> 5", "1 shared", "1 folded", "0 fused", "2 canonicalized"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("stats %q missing %q", str, frag)
		}
	}
	if s.Eliminated() != 2 {
		t.Fatalf("eliminated = %d, want 2", s.Eliminated())
	}
}

func TestCompilePlansRejectsEmpty(t *testing.T) {
	if _, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}); err == nil {
		t.Fatal("compiling zero plans should fail")
	}
}

func TestSharedPlanGraphInvariants(t *testing.T) {
	// The underlying DAG of a multi-plan compile must validate: ids
	// topological (acyclic), edges symmetric, keys unique — and the
	// structural hashes must be stable across independent compiles.
	mk := func() []*core.Plan {
		var plans []*core.Plan
		a := core.NewPipeline("a")
		a.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(32, 0, "hamming")).
			Add(core.Stat("rms")).
			Add(core.MinThreshold(0.3)))
		b := core.NewPipeline("b")
		b.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(32, 32, "hamming")).
			Add(core.Stat("rms")).
			Add(core.MaxThreshold(0.9)))
		for _, p := range []*core.Pipeline{a, b} {
			plans = append(plans, mustValidate(t, p))
		}
		return plans
	}
	sp1, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}, mk()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp1.Graph.Validate(); err != nil {
		t.Fatalf("graph invariants: %v", err)
	}
	sp2, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}, mk()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp1.Keys) != len(sp2.Keys) {
		t.Fatalf("key count %d vs %d across identical compiles", len(sp1.Keys), len(sp2.Keys))
	}
	for i := range sp1.Keys {
		if sp1.Keys[i] != sp2.Keys[i] || sp1.Hashes[i] != sp2.Hashes[i] {
			t.Fatalf("structural identity unstable at node %d: %q/%x vs %q/%x",
				i, sp1.Keys[i], sp1.Hashes[i], sp2.Keys[i], sp2.Hashes[i])
		}
	}
	// The two plans share window+stat: both outputs must not share, but
	// the prefix must.
	if sp1.Outputs[0].Out == sp1.Outputs[1].Out {
		t.Fatal("different thresholds must not share an output node")
	}
	if sp1.Stats.SharedNodes != 2 {
		t.Fatalf("shared %d nodes, want 2 (window and stat)", sp1.Stats.SharedNodes)
	}
}

func TestSharedPlanDot(t *testing.T) {
	a := core.NewPipeline("alpha")
	a.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(32, 0, "rectangular")).
		Add(core.Stat("rms")).
		Add(core.MinThreshold(0.3)))
	b := core.NewPipeline("beta")
	b.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(32, 0, "rectangular")).
		Add(core.Stat("rms")).
		Add(core.MaxThreshold(0.9)))
	sp, err := CompilePlans(core.DefaultCatalog(), CompileOptions{}, mustValidate(t, a), mustValidate(t, b))
	if err != nil {
		t.Fatal(err)
	}
	dot := sp.Dot()
	for _, frag := range []string{
		"digraph", "ch_MIC", "window", "stat", "minThreshold", "maxThreshold",
		"OUT alpha", "OUT beta", "fillcolor=lightblue", "doubleoctagon",
	} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("dot output missing %q:\n%s", frag, dot)
		}
	}
}
