package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
)

// pendingLen reports how many sequences are waiting for a port.
func (i *joinInst) pendingLen() int { return len(i.slots) - i.head }

// mapJoin is the reference join: pending sequences keyed in a map, stale
// ones found by scanning every key. joinInst must behave exactly like it.
type mapJoin struct {
	ports   int
	combine func([]float64) (float64, bool)
	pending map[int64]*mapJoinSlot
	latest  []int64
	primed  []bool
}

type mapJoinSlot struct {
	vals  []float64
	have  []bool
	count int
}

func newMapJoin(ports int, combine func([]float64) (float64, bool)) *mapJoin {
	return &mapJoin{
		ports:   ports,
		combine: combine,
		pending: make(map[int64]*mapJoinSlot),
		latest:  make([]int64, ports),
		primed:  make([]bool, ports),
	}
}

func (j *mapJoin) Push(port int, v Value) (Value, bool) {
	j.latest[port] = v.Seq
	j.primed[port] = true
	slot := j.pending[v.Seq]
	if slot == nil {
		slot = &mapJoinSlot{vals: make([]float64, j.ports), have: make([]bool, j.ports)}
		j.pending[v.Seq] = slot
	}
	if !slot.have[port] {
		slot.have[port] = true
		slot.count++
	}
	slot.vals[port] = v.Scalar
	j.prune()
	if slot.count < j.ports {
		return Value{}, false
	}
	delete(j.pending, v.Seq)
	out, ok := j.combine(slot.vals)
	if !ok {
		return Value{}, false
	}
	return Value{Seq: v.Seq, Scalar: out}, true
}

func (j *mapJoin) prune() {
	min := int64(math.MaxInt64)
	for p := 0; p < j.ports; p++ {
		if !j.primed[p] {
			return
		}
		if j.latest[p] < min {
			min = j.latest[p]
		}
	}
	for seq := range j.pending {
		if seq < min {
			delete(j.pending, seq)
		}
	}
}

func (j *mapJoin) Reset() {
	clear(j.pending)
	for p := range j.latest {
		j.latest[p] = 0
		j.primed[p] = false
	}
}

// joinStreams draws one monotone sequence stream per port: gaps of up to
// three, and on port `repeat` an occasional repeated seq.
func joinStreams(rng *rand.Rand, ports, n, repeat int) [][]Value {
	streams := make([][]Value, ports)
	for p := range streams {
		seq := int64(rng.Intn(4))
		for k := 0; k < n; k++ {
			streams[p] = append(streams[p], Value{Seq: seq, Scalar: rng.NormFloat64()})
			step := int64(1 + rng.Intn(3))
			if p == repeat && rng.Intn(5) == 0 {
				step = 0
			}
			seq += step
		}
	}
	return streams
}

// TestJoinMatchesMapReference drives the seq-sorted join and the map
// reference side by side over random port interleavings, with a Reset
// part-way through: every push must give the same (Value, ok) and leave the
// same number of sequences pending.
func TestJoinMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		ports := 2 + rng.Intn(3)
		// Weighted by port so a port-order mix-up changes the result; the
		// false branch exercises a combine that declines to emit.
		combine := func(vals []float64) (float64, bool) {
			s := 0.0
			for p, v := range vals {
				s += float64(p+1) * v
			}
			return s, s > -1
		}
		got := newJoinInst(ports, combine)
		want := newMapJoin(ports, combine)
		push := 0
		for phase := 0; phase < 2; phase++ {
			streams := joinStreams(rng, ports, 20+rng.Intn(60), rng.Intn(ports))
			next := make([]int, ports)
			// The first phase stops at a random point with input left
			// over, so Reset meets pending slots.
			stop := rng.Intn(len(streams[0]) * ports)
			for step := 0; phase == 1 || step < stop; step++ {
				var live []int
				for p := range streams {
					if next[p] < len(streams[p]) {
						live = append(live, p)
					}
				}
				if len(live) == 0 {
					break
				}
				p := live[rng.Intn(len(live))]
				v := streams[p][next[p]]
				next[p]++
				gv, gok := got.Push(p, v)
				wv, wok := want.Push(p, v)
				if gok != wok || gv.Seq != wv.Seq || math.Float64bits(gv.Scalar) != math.Float64bits(wv.Scalar) {
					t.Fatalf("trial %d push %d (port %d seq %d): join (%+v, %v), reference (%+v, %v)",
						trial, push, p, v.Seq, gv, gok, wv, wok)
				}
				if got.pendingLen() != len(want.pending) {
					t.Fatalf("trial %d push %d: pending %d, reference %d", trial, push, got.pendingLen(), len(want.pending))
				}
				push++
			}
			if phase == 0 {
				got.Reset()
				want.Reset()
				if got.pendingLen() != 0 {
					t.Fatalf("trial %d: pending after Reset = %d", trial, got.pendingLen())
				}
			}
		}
	}
}

// stepsNaivePlan is the significant-motion style steps condition: each
// accelerometer axis smoothed, joined into a vector magnitude, thresholded
// just above rest. Its join pairs dense streams from three channels, so
// block dispatch lets the leading axis queue a whole block in the join.
func stepsNaivePlan(tb testing.TB) *core.Plan {
	tb.Helper()
	p := core.NewPipeline("steps-naive")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(9.95))
	plan, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// accelAxes is a walking-like accelerometer signal: gravity on Z with a
// periodic swing and noise on every axis, so the magnitude crosses the
// threshold on some samples and not others.
func accelAxes(n int, seed int64) [3][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var axes [3][]float64
	for a := range axes {
		axes[a] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		swing := math.Sin(2 * math.Pi * float64(i) / 50)
		axes[0][i] = 0.6*swing + 0.2*rng.NormFloat64()
		axes[1][i] = 0.3*swing + 0.2*rng.NormFloat64()
		axes[2][i] = 9.81 + 0.4*swing + 0.2*rng.NormFloat64()
	}
	return axes
}

func machineJoin(t *testing.T, m *Machine) *joinInst {
	t.Helper()
	for _, n := range m.nodes {
		if j, ok := n.inst.(*joinInst); ok {
			return j
		}
	}
	t.Fatal("no join instance found")
	return nil
}

// TestCrossChannelBlockJoinEquivalence feeds the three axes as per-channel
// blocks (X, then Y, then Z) and checks the wakes and work against the
// interleaved per-sample run, in both precisions. The join may hold at most
// one block of the leading axes pending.
func TestCrossChannelBlockJoinEquivalence(t *testing.T) {
	plan := stepsNaivePlan(t)
	chans := [3]core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ}
	axes := accelAxes(3000, 5)
	for _, prec := range []Precision{Float64, Q15} {
		ref, err := NewPrecision(plan, prec)
		if err != nil {
			t.Fatal(err)
		}
		var want []wakeRec
		for i := range axes[0] {
			for a, ch := range chans {
				for _, w := range ref.PushSample(ch, axes[a][i]) {
					want = append(want, wakeRec{i, w.NodeID, math.Float64bits(w.Value), w.Seq})
				}
			}
		}
		if len(want) == 0 || len(want) == len(axes[0]) {
			t.Fatalf("%s: %d wakes over %d samples; the signal does not exercise the threshold", prec, len(want), len(axes[0]))
		}
		for _, chunk := range []int{1, 7, 256, 1024} {
			m, err := NewPrecision(plan, prec)
			if err != nil {
				t.Fatal(err)
			}
			join := machineJoin(t, m)
			var got []wakeRec
			for base := 0; base < len(axes[0]); base += chunk {
				end := min(base+chunk, len(axes[0]))
				for a, ch := range chans {
					for _, w := range m.PushBlock(ch, axes[a][base:end]) {
						got = append(got, wakeRec{base + w.Off, w.NodeID, math.Float64bits(w.Value), w.Seq})
					}
					if n := join.pendingLen(); n > chunk+1 {
						t.Fatalf("%s chunk %d: %d sequences pending after %s, want <= %d", prec, chunk, n, ch, chunk+1)
					}
				}
			}
			compareWakes(t, fmt.Sprintf("%s chunk %d", prec, chunk), want, got)
			if ref.Work() != m.Work() {
				t.Fatalf("%s chunk %d: work per-sample %+v, block %+v", prec, chunk, ref.Work(), m.Work())
			}
		}
	}
}

// BenchmarkJoinCrossChannelBlock runs the three-axis vector-magnitude join
// with 1024-sample blocks per axis, the dispatch pattern under which the
// leading axis queues a full block in the join. Steady state must stay at
// 0 allocs/op.
func BenchmarkJoinCrossChannelBlock(b *testing.B) {
	const block = 1024
	m, err := New(stepsNaivePlan(b))
	if err != nil {
		b.Fatal(err)
	}
	axes := accelAxes(block, 5)
	chans := [3]core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ}
	push := func() {
		for a, ch := range chans {
			m.PushBlock(ch, axes[a])
		}
	}
	for i := 0; i < 4; i++ {
		push() // warm the slot pool and scratch buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block*len(chans)), "ns/sample")
}
