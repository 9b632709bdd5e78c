package interp

import (
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
)

// wakeRec is one wake in absolute sample position, for comparing the block
// path against the per-sample reference.
type wakeRec struct {
	At     int
	NodeID int
	Value  uint64 // float64 bits: equivalence must be exact
	Seq    int64
}

// blockSignal builds a deterministic test signal long enough to cross
// several window/block boundaries.
func blockSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 3*math.Sin(2*math.Pi*float64(i)/37) + rng.NormFloat64()
	}
	return out
}

// machineWakesPerSample replays the signal per sample and collects wakes.
func machineWakesPerSample(m *Machine, ch core.SensorChannel, sig []float64) []wakeRec {
	var out []wakeRec
	for i, v := range sig {
		for _, w := range m.PushSample(ch, v) {
			out = append(out, wakeRec{i, w.NodeID, math.Float64bits(w.Value), w.Seq})
		}
	}
	return out
}

// machineWakesBlocked replays the signal via PushBlock in chunks.
func machineWakesBlocked(m *Machine, ch core.SensorChannel, sig []float64, chunk int) []wakeRec {
	var out []wakeRec
	for base := 0; base < len(sig); base += chunk {
		end := base + chunk
		if end > len(sig) {
			end = len(sig)
		}
		for _, w := range m.PushBlock(ch, sig[base:end]) {
			out = append(out, wakeRec{base + w.Off, w.NodeID, math.Float64bits(w.Value), w.Seq})
		}
	}
	return out
}

func compareWakes(t *testing.T, label string, want, got []wakeRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: wake count: per-sample %d, block %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: wake %d: per-sample %+v, block %+v", label, i, want[i], got[i])
		}
	}
}

// blockTestPipelines covers every dispatch class: consumer chains
// (window, block filter, goertzel), mapper chains (moving average, EMA,
// IIR), fallback stages (delta, abs, thresholds), and joins fed by two
// branches of one channel, aligned and with the branches emitting each
// sequence number at different samples.
func blockTestPipelines() map[string]*core.Pipeline {
	pipes := map[string]*core.Pipeline{}

	p := core.NewPipeline("window-stat")
	p.AddBranch(core.NewBranch(core.AccelX).
		Add(core.MovingAverage(3)).
		Add(core.Window(25, 12, "")).
		Add(core.Stat("stddev")).
		Add(core.MinThreshold(0.7)))
	pipes["window-stat"] = p

	p = core.NewPipeline("blockfilter-fft")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(750, 64)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Stat("mean")).
		Add(core.MinThreshold(0.05)))
	pipes["blockfilter-fft"] = p

	p = core.NewPipeline("join-two-branches")
	p.AddBranch(core.NewBranch(core.Mic).Add(core.Window(64, 64, "")).Add(core.Stat("variance")))
	p.AddBranch(core.NewBranch(core.Mic).Add(core.Window(64, 64, "")).Add(core.ZCRVariance(8)))
	p.Add(core.And())
	p.Add(core.MinThreshold(0.001))
	pipes["join-two-branches"] = p

	p = core.NewPipeline("join-misaligned")
	p.AddBranch(core.NewBranch(core.AccelX).Add(core.Window(25, 12, "")).Add(core.Stat("stddev")))
	p.AddBranch(core.NewBranch(core.AccelX).Add(core.Window(12, 12, "")).Add(core.Stat("stddev")))
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(3))
	pipes["join-misaligned"] = p

	p = core.NewPipeline("mapper-chain")
	p.AddBranch(core.NewBranch(core.AccelY).
		Add(core.MovingAverage(2)).
		Add(core.ExpMovingAverage(0.3)).
		Add(core.Delta()).
		Add(core.Abs()).
		Add(core.MinThreshold(0.2)))
	pipes["mapper-chain"] = p

	p = core.NewPipeline("goertzel")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.GoertzelBank(800, 1600, 4000, 64, 4)).
		Add(core.MinThreshold(0.5)))
	pipes["goertzel"] = p

	return pipes
}

// TestPushBlockMatchesPushSample checks the core equivalence contract:
// PushBlock at any chunking produces byte-identical wake sequences, work
// meters, and sequence numbers to a PushSample loop, in both precisions.
func TestPushBlockMatchesPushSample(t *testing.T) {
	sig := blockSignal(4096, 7)
	for name, p := range blockTestPipelines() {
		plan := mustPlan(t, p)
		ch := plan.Channels[0]
		for _, prec := range []Precision{Float64, Q15} {
			ref, err := NewPrecision(plan, prec)
			if err != nil {
				t.Fatal(err)
			}
			want := machineWakesPerSample(ref, ch, sig)
			for _, chunk := range []int{1, 3, 64, 1024, len(sig)} {
				m, err := NewPrecision(plan, prec)
				if err != nil {
					t.Fatal(err)
				}
				got := machineWakesBlocked(m, ch, sig, chunk)
				label := name + "/" + prec.String()
				compareWakes(t, label, want, got)
				if ref.Work() != m.Work() {
					t.Fatalf("%s chunk %d: work meter diverged: %+v vs %+v",
						label, chunk, ref.Work(), m.Work())
				}
			}
		}
	}
}

// TestMergedPushBlockMatchesPushSample checks the Merged equivalent on the
// signature-shared reference lowering, including plan attribution order
// and prefix sharing.
func TestMergedPushBlockMatchesPushSample(t *testing.T) {
	pipes := blockTestPipelines()
	plans := []*core.Plan{
		mustPlan(t, pipes["blockfilter-fft"]),
		mustPlan(t, pipes["join-two-branches"]),
		mustPlan(t, pipes["goertzel"]),
	}
	sig := blockSignal(4096, 11)

	type taggedRec struct {
		At   int
		Plan int
		wakeRec
	}
	for _, prec := range []Precision{Float64, Q15} {
		ref, err := newSignatureMerged(prec, plans...)
		if err != nil {
			t.Fatal(err)
		}
		var want []taggedRec
		for i, v := range sig {
			for _, w := range ref.PushSample(core.Mic, v) {
				want = append(want, taggedRec{i, w.Plan,
					wakeRec{i, w.NodeID, math.Float64bits(w.Value), w.Seq}})
			}
		}
		for _, chunk := range []int{1, 5, 128, 1024} {
			m, err := newSignatureMerged(prec, plans...)
			if err != nil {
				t.Fatal(err)
			}
			var got []taggedRec
			for base := 0; base < len(sig); base += chunk {
				end := base + chunk
				if end > len(sig) {
					end = len(sig)
				}
				for _, w := range m.PushBlock(core.Mic, sig[base:end]) {
					got = append(got, taggedRec{base + w.Off, w.Plan,
						wakeRec{base + w.Off, w.NodeID, math.Float64bits(w.Value), w.Seq}})
				}
			}
			if len(want) != len(got) {
				t.Fatalf("%s chunk %d: wake count %d vs %d", prec, chunk, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s chunk %d: wake %d: %+v vs %+v", prec, chunk, i, want[i], got[i])
				}
			}
			if ref.Work() != m.Work() {
				t.Fatalf("%s chunk %d: work meter diverged", prec, chunk)
			}
		}
	}
}

// TestPushBlockMultiChannel checks that chunk-interleaved multi-channel
// block pushes match the per-sample interleave on joined accel plans: one
// whose branches emit each sequence number at the same sample, and one
// whose ACC_X branch emits each 13 samples after its ACC_Y branch, so the
// join completes on a channel pushed before the one that arrives last.
func TestPushBlockMultiChannel(t *testing.T) {
	motion := core.NewPipeline("sig-motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		motion.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	motion.Add(core.VectorMagnitude())
	motion.Add(core.MinThreshold(5))

	lag := core.NewPipeline("lag")
	lag.AddBranch(core.NewBranch(core.AccelX).Add(core.Window(25, 12, "")).Add(core.Stat("stddev")))
	lag.AddBranch(core.NewBranch(core.AccelY).Add(core.Window(12, 12, "")).Add(core.Stat("stddev")))
	lag.Add(core.VectorMagnitude())
	lag.Add(core.MinThreshold(3))

	sigs := map[core.SensorChannel][]float64{
		core.AccelX: blockSignal(2000, 1), core.AccelY: blockSignal(2000, 2), core.AccelZ: blockSignal(2000, 3),
	}
	for _, p := range []*core.Pipeline{motion, lag} {
		plan := mustPlan(t, p)
		ref := mustMachine(t, p)
		var want []wakeRec
		for i := 0; i < 2000; i++ {
			for _, ch := range plan.Channels {
				for _, w := range ref.PushSample(ch, sigs[ch][i]) {
					want = append(want, wakeRec{i, w.NodeID, math.Float64bits(w.Value), w.Seq})
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: no wakes; test is vacuous", plan.Name)
		}

		for _, chunk := range []int{1, 7, 256} {
			m, err := New(plan)
			if err != nil {
				t.Fatal(err)
			}
			var got []wakeRec
			for base := 0; base < 2000; base += chunk {
				end := base + chunk
				if end > 2000 {
					end = 2000
				}
				for _, ch := range plan.Channels {
					for _, w := range m.PushBlock(ch, sigs[ch][base:end]) {
						got = append(got, wakeRec{base + w.Off, w.NodeID, math.Float64bits(w.Value), w.Seq})
					}
				}
			}
			compareWakes(t, plan.Name, want, got)
		}
	}
}
