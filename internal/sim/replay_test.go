package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/power"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// TestWakeWindowScript replays a scripted firing sequence at 1 Hz on a
// phone whose transitions take three samples, with a three-sample
// pre-buffer and a one-sample hold, and checks every rule of the window:
// the first opening clamps at sample 0, hold expiry closes at the first
// Awake sample past the hold, a firing while FallingAsleep re-wakes and
// opens a new interval, a firing while WakingUp wakes nothing, and close
// appends the interval still open at trace end.
func TestWakeWindowScript(t *testing.T) {
	profile := power.Nexus4()
	profile.TransitionSeconds = 3
	ph := power.NewPhone(profile)
	w := newWakeWindow(ph, 1, 3, 1)

	const n = 14
	fires := map[int]bool{1: true, 5: true, 7: false, 12: true, 13: false} // sample -> woke
	wantOpen := []bool{false, true, true, true, false, true, true, true, true, false, false, false, true, true}
	for i := 0; i < n; i++ {
		if wantWoke, ok := fires[i]; ok {
			if woke := w.fire(i); woke != wantWoke {
				t.Errorf("sample %d (%s): fire woke = %v, want %v", i, ph.State(), woke, wantWoke)
			}
		}
		w.idle(i)
		if w.open() != wantOpen[i] {
			t.Errorf("sample %d (%s): open = %v, want %v", i, ph.State(), w.open(), wantOpen[i])
		}
		ph.Advance(1)
	}

	got := w.close(n)
	want := []Interval{
		{0, 4},  // fired at 1: pre-buffer clamps at 0; Awake from 4, when the hold has long passed
		{2, 9},  // fired at 5 while FallingAsleep: re-wakes; the firing at 7 extends it
		{9, 14}, // fired at 12, still open at trace end
	}
	if len(got) != len(want) {
		t.Fatalf("intervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", got, want)
		}
	}
	if !w.open() {
		t.Error("open() after close must report the trace-end state (open)")
	}
	if ph.WakeUps() != 3 {
		t.Errorf("wake-ups = %d, want 3", ph.WakeUps())
	}
}

// TestHubPassMatchesPerSample checks the hub pass (the interpreter's Run
// into a fireList, then set) against per-sample pushes, chunk by chunk:
// the fire list is exactly the sorted, duplicate-free samples where a
// per-sample push produced a wake. Besides the steps condition, it runs a
// join whose ACC_X branch emits each sequence number 13 samples after its
// ACC_Y branch, so the join completes while ACC_Y is pushed but fires at
// the later ACC_X sample, and a merged hub built the way a fleet cell is:
// two plans sharing an ACC_X window that fire at one sample, an ACC_Y plan
// that, pushed after ACC_X, fires at earlier samples than it, and the join.
func TestHubPassMatchesPerSample(t *testing.T) {
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: time.Minute, IdleFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	cat := core.DefaultCatalog()
	validate := func(p *core.Pipeline) *core.Plan {
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	stddev := func(name string, ch core.SensorChannel, size int, min float64) *core.Plan {
		p := core.NewPipeline(name)
		p.AddBranch(core.NewBranch(ch).Add(core.Window(size, size, "")).Add(core.Stat("stddev")))
		p.Add(core.MinThreshold(min))
		return validate(p)
	}
	lagP := core.NewPipeline("lag")
	lagP.AddBranch(core.NewBranch(core.AccelX).Add(core.Window(25, 12, "")).Add(core.Stat("stddev")))
	lagP.AddBranch(core.NewBranch(core.AccelY).Add(core.Window(12, 12, "")).Add(core.Stat("stddev")))
	lagP.Add(core.VectorMagnitude())
	lagP.Add(core.MinThreshold(1.4))
	lag := validate(lagP)

	type runFunc func(chs []core.SensorChannel, data [][]float64, from, to int, wake func(int, interp.TaggedWake))
	type hubCase struct {
		name   string
		chs    []core.SensorChannel
		run    runFunc
		push   func(ch core.SensorChannel, v float64) int // wakes of one per-sample push
		merged bool
	}
	var cases []hubCase
	for _, plan := range []*core.Plan{validate(apps.Steps().Wake), lag} {
		block, err := interp.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		single, err := interp.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, hubCase{name: plan.Name, chs: plan.Channels, run: block.Run,
			push: func(ch core.SensorChannel, v float64) int { return len(single.PushSample(ch, v)) }})
	}
	plans := []*core.Plan{stddev("x", core.AccelX, 25, 1), stddev("x-lo", core.AccelX, 25, 0.5), stddev("y", core.AccelY, 20, 1), lag}
	sp, err := ir.CompilePlans(cat, ir.CompileOptions{}, plans...)
	if err != nil {
		t.Fatal(err)
	}
	block, err := interp.NewShared(interp.Float64, sp)
	if err != nil {
		t.Fatal(err)
	}
	single, err := interp.NewShared(interp.Float64, sp)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, hubCase{name: "merged", chs: []core.SensorChannel{core.AccelX, core.AccelY}, run: block.Run,
		push: func(ch core.SensorChannel, v float64) int { return len(single.PushSample(ch, v)) }, merged: true})

	for _, c := range cases {
		data, err := traceChannels(tr, c.chs, c.name)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.Len()
		var f, want fireList
		fires, unsorted, dups := 0, 0, 0
		for base := 0; base < n; base += simBlock {
			end := min(base+simBlock, n)
			f = f[:0]
			c.run(c.chs, data, base, end, f.add)
			if !slices.IsSorted(f) {
				unsorted++
			}
			raw := len(f)
			f = f.set()
			dups += raw - len(f)
			want = want[:0]
			for i := base; i < end; i++ {
				wakes := 0
				for ci, ch := range c.chs {
					wakes += c.push(ch, data[ci][i])
				}
				if wakes > 0 {
					want = append(want, i)
				}
			}
			if !slices.Equal(f, want) {
				t.Fatalf("%s: chunk at %d: fire list %v, per-sample firings %v", c.name, base, f, want)
			}
			fires += len(f)
		}
		if fires == 0 {
			t.Fatalf("%s: trace produced no wakes; test is vacuous", c.name)
		}
		if c.merged && (unsorted == 0 || dups == 0) {
			t.Fatalf("%s: %d chunks fired out of order and %d firings repeated a sample; want both > 0", c.name, unsorted, dups)
		}
	}
}

// replayPerSample is the per-sample loop wakeWindow.replay replaced, kept
// as its oracle: every sample of [base, end) visits, idles and steps the
// clock, and fires is consumed as the samples reach it.
func replayPerSample(w *wakeWindow, fires []int, base, end int, visit func(i int, hit bool)) {
	dt := 1 / w.c.rate
	for i := base; i < end; i++ {
		hit := len(fires) > 0 && fires[0] == i
		if hit {
			fires = fires[1:]
		}
		if visit != nil {
			visit(i, hit)
		} else if hit {
			w.fire(i)
		}
		w.idle(i)
		w.c.advance(dt)
	}
}

// replayCase is one seeded firing pattern for the replay differential.
type replayCase struct {
	name      string
	n         int
	rate      float64
	preBuffer int
	hold      int
	density   float64 // per-sample firing probability
	force     []int   // samples that always fire
	deadlines []int   // caller deadlines for the until bound (sorted)
}

// replayRun replays c's firings, handed over as per-chunk fire lists,
// through the window either with replay or with the per-sample oracle and
// returns the window and a log of what the caller's visit saw act:
// firings, wake verdicts and deadline expiries, each with its sample
// index. timed attaches a telemetry clock, the only reader of the
// window's simulated time.
func replayRun(c replayCase, perSample, timed bool) (*wakeWindow, []string) {
	rng := rand.New(rand.NewSource(int64(c.n) ^ int64(c.hold)<<20))
	var fires fireList
	for i := 0; i < c.n; i++ {
		if rng.Float64() < c.density || slices.Contains(c.force, i) {
			fires = append(fires, i)
		}
	}
	w := newWakeWindow(power.NewPhone(power.Nexus4()), c.rate, c.preBuffer, c.hold)
	if timed {
		w.c.tclk = &telemetry.Clock{}
	}
	var log []string
	next := 0
	visit := func(i int, hit bool) {
		if hit {
			log = append(log, fmt.Sprintf("fire %d woke=%v", i, w.fire(i)))
		}
		for next < len(c.deadlines) && c.deadlines[next] < i {
			log = append(log, fmt.Sprintf("expire %d at %d open=%v", c.deadlines[next], i, w.open()))
			next++
		}
	}
	until := func() int {
		if next == len(c.deadlines) {
			return math.MaxInt
		}
		return c.deadlines[next] + 1
	}
	for base := 0; base < c.n; base += simBlock {
		end := min(base+simBlock, c.n)
		k := 0
		for k < len(fires) && fires[k] < end {
			k++
		}
		f := fires[:k]
		fires = fires[k:]
		if perSample {
			replayPerSample(w, f, base, end, visit)
		} else {
			w.replay(f, base, end, visit, until)
		}
	}
	return w, log
}

// TestReplayMatchesPerSample checks the quiet-run replay against the
// per-sample loop it replaced: the same delivered intervals, wake-ups,
// visit log and, bit for bit, every state's dwell, with and without a
// telemetry clock, and with one, the simulated time it is stamped with.
func TestReplayMatchesPerSample(t *testing.T) {
	const b = simBlock
	cases := []replayCase{
		{name: "empty", n: 3*b + 17, rate: 50, preBuffer: 10, hold: 75},
		{name: "sparse", n: 20*b + 333, rate: 50, preBuffer: 10, hold: 75, density: 0.0005},
		{name: "dense", n: 6*b + 1, rate: 50, preBuffer: 10, hold: 75, density: 0.3},
		{name: "moderate preBuffer 0", n: 9 * b, rate: 1000, hold: 1500, density: 0.002},
		{name: "hold shorter than transition", n: 8*b + 5, rate: 50, preBuffer: 3, hold: 20, density: 0.004},
		{name: "block edges", n: 5*b + 100, rate: 50, preBuffer: 10, hold: 75,
			force: []int{0, b - 1, b, 3*b - 1, 5*b + 99}},
		// Fired at 2b-76 with hold 75: the hold expires exactly at 2b.
		{name: "hold expires at block edge", n: 3 * b, rate: 50, hold: 75, force: []int{2*b - 76}},
		// A wake at b-10 takes 50 samples, so its transition spans the edge.
		{name: "transition spans blocks", n: 3*b + 1, rate: 50, preBuffer: 0, hold: 75, force: []int{b - 10, 2*b - 3}},
		{name: "fractional rate", n: 7*b + 3, rate: 8000.0 / 3, preBuffer: 40, hold: 4000, density: 0.0003},
		{name: "deadlines", n: 10*b + 9, rate: 50, preBuffer: 10, hold: 75, density: 0.001,
			deadlines: []int{0, 5, b - 1, b, b + 1, 2000, 2001, 4095, 4096, 7777, 10*b + 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, timed := range []bool{false, true} {
				wantW, wantLog := replayRun(c, true, timed)
				gotW, gotLog := replayRun(c, false, timed)
				wantC, gotC := &wantW.c, &gotW.c
				if want, got := wantW.close(c.n), gotW.close(c.n); !reflect.DeepEqual(got, want) {
					t.Fatalf("timed=%v: intervals = %v, want %v", timed, got, want)
				}
				if !reflect.DeepEqual(gotLog, wantLog) {
					t.Fatalf("timed=%v: visit log = %v, want %v", timed, gotLog, wantLog)
				}
				if got, want := gotC.ph.WakeUps(), wantC.ph.WakeUps(); got != want {
					t.Fatalf("timed=%v: wake-ups = %d, want %d", timed, got, want)
				}
				if gotC.ph.State() != wantC.ph.State() {
					t.Fatalf("timed=%v: final state = %s, want %s", timed, gotC.ph.State(), wantC.ph.State())
				}
				for s := power.Asleep; s <= power.FallingAsleep; s++ {
					if got, want := gotC.ph.Dwell(s), wantC.ph.Dwell(s); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("timed=%v: %s dwell = %v, want %v", timed, s, got, want)
					}
				}
				if timed && (math.Float64bits(gotC.t) != math.Float64bits(wantC.t) ||
					math.Float64bits(gotC.tclk.NowUS()) != math.Float64bits(wantC.tclk.NowUS())) {
					t.Fatalf("clock = %v (%v us), want %v (%v us)", gotC.t, gotC.tclk.NowUS(), wantC.t, wantC.tclk.NowUS())
				}
				if c.density > 0 && wantC.ph.WakeUps() == 0 {
					t.Fatal("no wake-ups: case is vacuous")
				}
			}
		})
	}
}
