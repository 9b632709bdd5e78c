package interp

import (
	"math"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/ir"
	"sidewinder/internal/sched"
)

// twoWindowPlans builds two pipelines sharing an identical window stage
// over MIC but diverging in features.
func twoWindowPlans(t *testing.T) (*core.Plan, *core.Plan) {
	t.Helper()
	cat := core.DefaultCatalog()
	a := core.NewPipeline("a")
	a.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(1)))
	b := core.NewPipeline("b")
	b.AddBranch(core.NewBranch(core.Mic).
		Add(core.Window(4, 0, "")).
		Add(core.Stat("range")).
		Add(core.MinThreshold(2)))
	pa, err := a.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// sharePaths builds the plans' shared plan both ways the engine can be fed:
// the DAG compile pass and the signature-sharing reference.
func sharePaths(t *testing.T, plans ...*core.Plan) map[string]*ir.SharedPlan {
	t.Helper()
	dag, err := ir.CompilePlans(core.DefaultCatalog(), ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := signatureShare(plans...)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ir.SharedPlan{"dag": dag, "signature": sig}
}

// checkSharing builds a merged machine from each shared plan and checks
// its node table size and eliminated-node count.
func checkSharing(t *testing.T, plans []*core.Plan, wantNodes, wantShared int) {
	t.Helper()
	for name, sp := range sharePaths(t, plans...) {
		m, err := NewShared(Float64, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.nodes) != wantNodes {
			t.Errorf("%s: %d live nodes, want %d", name, len(m.nodes), wantNodes)
		}
		if m.SharedNodes() != wantShared {
			t.Errorf("%s: SharedNodes = %d, want %d", name, m.SharedNodes(), wantShared)
		}
		if len(sp.Outputs) != len(plans) {
			t.Errorf("%s: %d outputs for %d plans", name, len(sp.Outputs), len(plans))
		}
	}
}

func TestMergedSharesCommonPrefix(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	// 3 + 3 plan nodes, window shared once -> 5 live nodes.
	checkSharing(t, []*core.Plan{pa, pb}, 5, 1)
}

func TestMergedMatchesSeparateMachines(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	merged, err := newSignatureMerged(Float64, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := New(pa)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(pb)
	if err != nil {
		t.Fatal(err)
	}
	// Feed identical data; merged wakes must equal the union of the
	// separate machines' wakes, tagged correctly.
	inputs := []float64{0, 0, 0, 0, 2, 2, 2, 2, -1, 3, 1, 0, 5, 5, 5, 5}
	for _, v := range inputs {
		var wantA, wantB int
		wantA = len(ma.PushSample(core.Mic, v))
		wantB = len(mb.PushSample(core.Mic, v))
		var gotA, gotB int
		for _, w := range merged.PushSample(core.Mic, v) {
			switch w.Plan {
			case 0:
				gotA++
			case 1:
				gotB++
			default:
				t.Fatalf("unexpected plan tag %d", w.Plan)
			}
		}
		if gotA != wantA || gotB != wantB {
			t.Fatalf("sample %g: merged wakes (%d,%d), separate (%d,%d)", v, gotA, gotB, wantA, wantB)
		}
	}
}

func TestMergedWorkLessThanSeparate(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	merged, _ := newSignatureMerged(Float64, pa, pb)
	ma, _ := New(pa)
	mb, _ := New(pb)
	for i := 0; i < 400; i++ {
		v := float64(i % 9)
		merged.PushSample(core.Mic, v)
		ma.PushSample(core.Mic, v)
		mb.PushSample(core.Mic, v)
	}
	separate := ma.Work().Add(mb.Work())
	shared := merged.Work()
	if shared.IntOps >= separate.IntOps {
		t.Errorf("merged int work %.0f should be below separate %.0f", shared.IntOps, separate.IntOps)
	}
}

func TestMergedIdenticalPlansFullSharing(t *testing.T) {
	pa, _ := twoWindowPlans(t)
	pa2, _ := twoWindowPlans(t)
	// Fully identical plans: every node shared, one OUT node tagged for
	// both plans.
	checkSharing(t, []*core.Plan{pa, pa2}, 3, 3)
	m, err := newSignatureMerged(Float64, pa, pa2)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, v := range []float64{3, 3, 3, 3} {
		for _, w := range m.PushSample(core.Mic, v) {
			fired++
			_ = w
		}
	}
	if fired != 2 {
		t.Errorf("identical plans should both fire: %d wakes, want 2", fired)
	}
}

func TestMergedDemandDeduplicates(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	fBoth, iBoth, memBoth := ir.Demand(ir.CompileOptions{}, pa, pb)
	fA, iA, memA := ir.Demand(ir.CompileOptions{}, pa)
	fB, iB, memB := ir.Demand(ir.CompileOptions{}, pb)
	if fBoth >= fA+fB && iBoth >= iA+iB {
		t.Errorf("merged demand (%.1f, %.1f) not below sum (%.1f, %.1f)", fBoth, iBoth, fA+fB, iA+iB)
	}
	if memBoth >= memA+memB {
		t.Errorf("merged memory %d not below sum %d", memBoth, memA+memB)
	}
	// And never below the larger single plan.
	if memBoth < memA || memBoth < memB {
		t.Errorf("merged memory %d below a single plan (%d, %d)", memBoth, memA, memB)
	}
}

func TestMergedResetAndWorkMeter(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	m, _ := newSignatureMerged(Float64, pa, pb)
	for i := 0; i < 8; i++ {
		m.PushSample(core.Mic, 3)
	}
	if w := m.Work(); w.IntOps == 0 && w.FloatOps == 0 {
		t.Error("work meter did not accumulate")
	}
	m.Reset()
	// After reset the shared window must refill: 3 samples produce no
	// wake even though values are high.
	n := 0
	for i := 0; i < 3; i++ {
		n += len(m.PushSample(core.Mic, 9))
	}
	if n != 0 {
		t.Errorf("state survived Reset: %d wakes", n)
	}
}

func TestMergedValidation(t *testing.T) {
	if _, err := ir.CompilePlans(core.DefaultCatalog(), ir.CompileOptions{}); err == nil {
		t.Error("empty plan set should fail to compile")
	}
	pa, _ := twoWindowPlans(t)
	if _, err := NewShared(Float64, &ir.SharedPlan{Plan: pa}); err == nil {
		t.Error("shared plan without outputs should fail")
	}
}

func TestMergedDistinctParamsNotShared(t *testing.T) {
	cat := core.DefaultCatalog()
	a := core.NewPipeline("a")
	a.AddBranch(core.NewBranch(core.Mic).Add(core.Window(4, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)))
	b := core.NewPipeline("b")
	b.AddBranch(core.NewBranch(core.Mic).Add(core.Window(8, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(1)))
	pa, err := a.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Validate(cat)
	if err != nil {
		t.Fatal(err)
	}
	// Different window sizes: nothing shared; stat/threshold differ
	// because their inputs differ.
	checkSharing(t, []*core.Plan{pa, pb}, 6, 0)
}

func TestMergedDemandByStageSumsToTotal(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	wantF, wantI, wantMem := ir.Demand(ir.CompileOptions{}, pa, pb)
	stages := ir.DemandByKind(ir.CompileOptions{}, pa, pb)
	if len(stages) == 0 {
		t.Fatal("no stage demand reported")
	}
	var gotF, gotI float64
	var gotMem, nodes int
	for i, sd := range stages {
		if i > 0 && !(stages[i-1].Kind < sd.Kind) {
			t.Errorf("stages not kind-sorted: %q before %q", stages[i-1].Kind, sd.Kind)
		}
		gotF += sd.FloatOpsPerSec
		gotI += sd.IntOpsPerSec
		gotMem += sd.MemoryBytes
		nodes += sd.Nodes
	}
	if gotF != wantF || gotI != wantI || gotMem != wantMem {
		t.Errorf("per-stage sums (%g, %g, %d) != ir.Demand (%g, %g, %d)",
			gotF, gotI, gotMem, wantF, wantI, wantMem)
	}
	// 3 + 3 plan nodes with the window shared once -> 5 distinct
	// instances, exactly the node table the engine executes.
	if nodes != 5 {
		t.Errorf("distinct nodes = %d, want 5", nodes)
	}
	m, err := NewShared(Float64, sharePaths(t, pa, pb)["dag"])
	if err != nil {
		t.Fatal(err)
	}
	if len(m.nodes) != nodes {
		t.Errorf("engine runs %d nodes, demand model bills %d", len(m.nodes), nodes)
	}
}

func TestMergedDemandByStageDeduplicates(t *testing.T) {
	pa, _ := twoWindowPlans(t)
	once := ir.DemandByKind(ir.CompileOptions{}, pa)
	twice := ir.DemandByKind(ir.CompileOptions{}, pa, pa)
	if len(once) != len(twice) {
		t.Fatalf("duplicate plan changed stage count: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Errorf("stage %q demand changed when the plan was listed twice:\nonce:  %+v\ntwice: %+v",
				once[i].Kind, once[i], twice[i])
		}
	}
}

// TestPlaceBillsSharedWindowOnce pins the placement's pricing against the
// merged engine: placing a, b and a copy of a bills the shared window and
// the copy once, as ir.Demand over a and b does, and the plan nodes it
// reports shared are exactly the ones the merged engine does not run.
func TestPlaceBillsSharedWindowOnce(t *testing.T) {
	pa, pb := twoWindowPlans(t)
	dev := hub.LM4F120()
	r := sched.Place([]hub.Device{dev}, []*core.Plan{pa, pb, pa}, []int{0, 0, 0}, ir.CompileOptions{})
	if len(r.Admitted) != 3 {
		t.Fatalf("admitted %v, want all three plans", r.Admitted)
	}
	f, i, mem := ir.Demand(ir.CompileOptions{}, pa, pb)
	if want := dev.Cycles(f, i) / dev.CycleBudget(); math.Abs(r.CycleFrac-want) > 1e-12*want {
		t.Errorf("cycle fraction %g, ir.Demand gives %g", r.CycleFrac, want)
	}
	if want := float64(mem) / float64(dev.RAMBytes); r.RAMFrac != want {
		t.Errorf("RAM fraction %g, ir.Demand gives %g", r.RAMFrac, want)
	}
	m, err := NewShared(Float64, sharePaths(t, pa, pb, pa)["dag"])
	if err != nil {
		t.Fatal(err)
	}
	// 3 × 3 plan nodes run as 5 instances: the copy and the second window
	// are shared.
	if want := 3*len(pa.Nodes) - len(m.nodes); r.SharedNodes != want || want != 4 {
		t.Errorf("placement reports %d shared nodes, the engine eliminates %d (want 4)", r.SharedNodes, want)
	}
}
