package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/ir"
	"sidewinder/internal/testutil"
	"sidewinder/internal/tracegen"
)

// The DAG compile pass (package ir) is allowed to restructure a plan —
// deduplicate identical subgraphs, fold redundant stages, fuse threshold
// chains — but never to change what the hub observes: the wake sequence
// must be identical sample for sample, value for value (as float64 bits),
// in both precisions and on both dispatch paths. This file is the
// exhaustive pin: every catalog application, float64 and q15, PushSample
// and PushBlock at several chunkings, linear plan vs DAG plan.

// dagWake is one wake in absolute sample position. NodeID is deliberately
// excluded: the compile pass renumbers nodes when it eliminates
// duplicates, which shifts the OUT node's ID without changing behavior.
type dagWake struct {
	At    int
	Value uint64 // float64 bits: equivalence must be exact
	Seq   int64
}

// dagChunkings are the block sizes the equivalence matrix sweeps. They
// straddle the catalog's window sizes: single-sample, a prime that
// misaligns every boundary, and two powers of two.
var dagChunkings = []int{1, 7, 64, 256}

// dagTestChannels synthesizes one trace per modality and returns the
// merged per-channel sample streams. The robot trace covers the three
// accelerometer channels, the audio trace the microphone.
func dagTestChannels(t *testing.T) map[core.SensorChannel][]float64 {
	t.Helper()
	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 5, Duration: 2 * time.Minute, IdleFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	audio, err := tracegen.Audio(tracegen.NewAudioConfig(9, 15*time.Second, tracegen.CoffeeShopAudio))
	if err != nil {
		t.Fatal(err)
	}
	chans := make(map[core.SensorChannel][]float64)
	for ch, sig := range robot.Channels {
		chans[ch] = sig
	}
	for ch, sig := range audio.Channels {
		chans[ch] = sig
	}
	return chans
}

// feedPerSample drives a machine sample by sample, interleaving the
// plan's channels in order at each index (channels may have different
// lengths; shorter ones simply stop contributing).
func feedPerSample(m *Machine, order []core.SensorChannel, chans map[core.SensorChannel][]float64) []dagWake {
	n := 0
	for _, ch := range order {
		if len(chans[ch]) > n {
			n = len(chans[ch])
		}
	}
	var out []dagWake
	for i := 0; i < n; i++ {
		for _, ch := range order {
			sig := chans[ch]
			if i >= len(sig) {
				continue
			}
			for _, w := range m.PushSample(ch, sig[i]) {
				out = append(out, dagWake{i, math.Float64bits(w.Value), w.Seq})
			}
		}
	}
	return out
}

// feedBlocked drives a machine through PushBlock in fixed-size chunks.
// Within a chunk, wakes from different channels are re-merged by absolute
// offset (stable in channel order) to reproduce the per-sample interleave.
func feedBlocked(m *Machine, order []core.SensorChannel, chans map[core.SensorChannel][]float64, chunk int) []dagWake {
	n := 0
	for _, ch := range order {
		if len(chans[ch]) > n {
			n = len(chans[ch])
		}
	}
	var out []dagWake
	for base := 0; base < n; base += chunk {
		var pend []dagWake
		for _, ch := range order {
			sig := chans[ch]
			if base >= len(sig) {
				continue
			}
			end := base + chunk
			if end > len(sig) {
				end = len(sig)
			}
			for _, w := range m.PushBlock(ch, sig[base:end]) {
				pend = append(pend, dagWake{base + w.Off, math.Float64bits(w.Value), w.Seq})
			}
		}
		for i := 1; i < len(pend); i++ {
			for j := i; j > 0 && pend[j].At < pend[j-1].At; j-- {
				pend[j], pend[j-1] = pend[j-1], pend[j]
			}
		}
		out = append(out, pend...)
	}
	return out
}

func compareDagWakes(t *testing.T, label string, want, got []dagWake) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: wake count %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: wake %d: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// TestDAGLinearEquivalence is the headline pin: for every catalog
// application, in both precisions and on both dispatch paths at several
// chunkings, the DAG-compiled plan produces exactly the wake sequence of
// the linear plan — and exactly its work meter, with duplicated subgraphs
// metered once via the signature-sharing reference lowering (run on the
// same engine) for the apps where CSE actually eliminates nodes.
func TestDAGLinearEquivalence(t *testing.T) {
	cat := core.DefaultCatalog()
	chans := dagTestChannels(t)

	// The pass must demonstrably fire somewhere in the catalog, or this
	// whole file pins a no-op.
	sawElimination := false

	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		compiled, stats, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Eliminated() > 0 {
			sawElimination = true
		}
		order := plan.Channels
		for _, prec := range []Precision{Float64, Q15} {
			label := app.Name + "/" + prec.String()

			linear, err := NewPrecision(plan, prec)
			if err != nil {
				t.Fatal(err)
			}
			want := feedPerSample(linear, order, chans)

			dag, err := NewPrecision(compiled, prec)
			if err != nil {
				t.Fatal(err)
			}
			got := feedPerSample(dag, order, chans)
			compareDagWakes(t, label+"/per-sample", want, got)

			// Work meter: with nothing eliminated the DAG machine must
			// meter bit-identically to the linear one. With duplicates
			// eliminated it must meter bit-identically to the
			// signature-sharing lowering of the same plan — the pre-DAG
			// shared-execution reference.
			if stats.Eliminated() == 0 {
				if linear.Work() != dag.Work() {
					t.Fatalf("%s: work meter diverged with no elimination: %+v vs %+v",
						label, linear.Work(), dag.Work())
				}
			} else {
				ref, err := newSignatureMerged(prec, plan)
				if err != nil {
					t.Fatal(err)
				}
				var refWakes []dagWake
				for i, v := range chans[order[0]] {
					for _, w := range ref.PushSample(order[0], v) {
						refWakes = append(refWakes, dagWake{i, math.Float64bits(w.Value), w.Seq})
					}
				}
				if len(order) != 1 {
					t.Fatalf("%s: eliminated>0 app expected single-channel", label)
				}
				compareDagWakes(t, label+"/merged-ref", refWakes, got)
				if ref.Work() != dag.Work() {
					t.Fatalf("%s: work meter diverged from shared reference: %+v vs %+v",
						label, ref.Work(), dag.Work())
				}
			}

			// Block dispatch: every chunking reproduces the per-sample
			// wake sequence and work meter of the DAG machine.
			for _, chunk := range dagChunkings {
				bm, err := NewPrecision(compiled, prec)
				if err != nil {
					t.Fatal(err)
				}
				bw := feedBlocked(bm, order, chans, chunk)
				compareDagWakes(t, label+"/block", want, bw)
				if bm.Work() != dag.Work() {
					t.Fatalf("%s chunk %d: block work meter diverged: %+v vs %+v",
						label, chunk, bm.Work(), dag.Work())
				}
			}
		}
	}
	if !sawElimination {
		t.Fatal("no catalog app exercised CSE: the equivalence matrix pins a no-op compile pass")
	}
}

// taggedDagWake attributes a wake to its source plan for the cross-app
// matrix. NodeID is excluded for the same renumbering reason as dagWake.
type taggedDagWake struct {
	At    int
	Plan  int
	Value uint64
	Seq   int64
}

// TestDAGCrossAppEquivalence pins the multi-tenant form: all six catalog
// apps compiled into one shared DAG execute exactly like the
// signature-sharing reference lowering — same tagged wake sequence, same
// work meter — in both precisions, per-sample and blocked. It also pins
// that cross-app CSE eliminates strictly more than the apps' intra-app
// duplicates alone.
func TestDAGCrossAppEquivalence(t *testing.T) {
	cat := core.DefaultCatalog()
	chans := dagTestChannels(t)

	var plans []*core.Plan
	perAppEliminated := 0
	for _, app := range apps.All() {
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		plan.Name = app.Name
		plans = append(plans, plan)
		_, stats, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		perAppEliminated += stats.Eliminated()
	}
	sp, err := ir.CompilePlans(cat, ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stats.Eliminated() <= perAppEliminated {
		t.Fatalf("cross-app CSE eliminated %d nodes, want more than the intra-app total %d",
			sp.Stats.Eliminated(), perAppEliminated)
	}

	// Union of channels in first-use order across the plans.
	var order []core.SensorChannel
	seen := map[core.SensorChannel]bool{}
	for _, p := range plans {
		for _, ch := range p.Channels {
			if !seen[ch] {
				seen[ch] = true
				order = append(order, ch)
			}
		}
	}
	n := 0
	for _, ch := range order {
		if len(chans[ch]) > n {
			n = len(chans[ch])
		}
	}

	for _, prec := range []Precision{Float64, Q15} {
		ref, err := newSignatureMerged(prec, plans...)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewShared(prec, sp)
		if err != nil {
			t.Fatal(err)
		}

		collect := func(m *Merged) []taggedDagWake {
			var out []taggedDagWake
			for i := 0; i < n; i++ {
				for _, ch := range order {
					sig := chans[ch]
					if i >= len(sig) {
						continue
					}
					for _, w := range m.PushSample(ch, sig[i]) {
						out = append(out, taggedDagWake{i, w.Plan, math.Float64bits(w.Value), w.Seq})
					}
				}
			}
			return out
		}
		want := collect(ref)
		got := collect(shared)
		if len(want) == 0 {
			t.Fatalf("%s: no wakes at all — traces too quiet to pin anything", prec)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: tagged wake count %d vs %d", prec, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: tagged wake %d: %+v vs %+v", prec, i, want[i], got[i])
			}
		}
		if ref.Work() != shared.Work() {
			t.Fatalf("%s: work meter diverged: %+v vs %+v", prec, ref.Work(), shared.Work())
		}

		// Blocked dispatch, both machines driven by the identical chunk
		// pattern, must agree wake for wake as well.
		for _, chunk := range dagChunkings {
			refB, err := newSignatureMerged(prec, plans...)
			if err != nil {
				t.Fatal(err)
			}
			sharedB, err := NewShared(prec, sp)
			if err != nil {
				t.Fatal(err)
			}
			collectB := func(m *Merged) []taggedDagWake {
				var out []taggedDagWake
				for base := 0; base < n; base += chunk {
					for _, ch := range order {
						sig := chans[ch]
						if base >= len(sig) {
							continue
						}
						end := base + chunk
						if end > len(sig) {
							end = len(sig)
						}
						for _, w := range m.PushBlock(ch, sig[base:end]) {
							out = append(out, taggedDagWake{base + w.Off, w.Plan, math.Float64bits(w.Value), w.Seq})
						}
					}
				}
				return out
			}
			bw := collectB(refB)
			bg := collectB(sharedB)
			if len(bw) != len(bg) {
				t.Fatalf("%s chunk %d: tagged wake count %d vs %d", prec, chunk, len(bw), len(bg))
			}
			for i := range bw {
				if bw[i] != bg[i] {
					t.Fatalf("%s chunk %d: tagged wake %d: %+v vs %+v", prec, chunk, i, bw[i], bg[i])
				}
			}
			if refB.Work() != sharedB.Work() {
				t.Fatalf("%s chunk %d: block work meter diverged", prec, chunk)
			}
		}
	}
}

// TestRandomPipelinesDAGEquivalence extends the catalog matrix to the
// generated pipeline space: for random valid conditions, the DAG-compiled
// plan must produce the linear plan's exact wake sequence on random data,
// and never more metered work.
func TestRandomPipelinesDAGEquivalence(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(20260808))
	sawElimination := false
	for i := 0; i < 150; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		compiled, stats, err := ir.CompilePlan(cat, ir.CompileOptions{}, plan)
		if err != nil {
			t.Fatalf("pipeline %d: compile: %v", i, err)
		}
		if stats.Eliminated() > 0 {
			sawElimination = true
		}
		sig := make([]float64, 700)
		for s := range sig {
			sig[s] = rng.NormFloat64() * 10
		}
		ch := plan.Channels[0]
		linear, err := New(plan)
		if err != nil {
			t.Fatalf("pipeline %d: %v", i, err)
		}
		dag, err := New(compiled)
		if err != nil {
			t.Fatalf("pipeline %d: compiled machine: %v", i, err)
		}
		var want, got []dagWake
		for s, v := range sig {
			for _, w := range linear.PushSample(ch, v) {
				want = append(want, dagWake{s, math.Float64bits(w.Value), w.Seq})
			}
			for _, w := range dag.PushSample(ch, v) {
				got = append(got, dagWake{s, math.Float64bits(w.Value), w.Seq})
			}
		}
		compareDagWakes(t, fmt.Sprintf("pipeline %d (%s)", i, p.Name()), want, got)
		lw, dw := linear.Work(), dag.Work()
		if dw.FloatOps > lw.FloatOps+1e-9 || dw.IntOps > lw.IntOps+1e-9 {
			t.Fatalf("pipeline %d: DAG work %+v exceeds linear %+v", i, dw, lw)
		}
		if stats.Eliminated() == 0 && (lw != dw) {
			t.Fatalf("pipeline %d: work diverged with nothing eliminated: %+v vs %+v", i, lw, dw)
		}
	}
	if !sawElimination {
		t.Fatal("no generated pipeline exercised the compile pass's rewrites")
	}
}
