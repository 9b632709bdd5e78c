package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/power"
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

// TestHubFeedMatchesPerSample checks the block pump against the
// interpreter's per-sample path: the fired bitmap marks exactly the
// samples whose push produced a wake, and stale bits from the previous
// block never survive.
func TestHubFeedMatchesPerSample(t *testing.T) {
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: time.Minute, IdleFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := apps.Steps().Wake.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	block, err := interp.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	single, err := interp.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := newHubFeed(block, tr, plan.Channels, "steps")
	if err != nil {
		t.Fatal(err)
	}

	n := tr.Len()
	fired := make([]bool, simBlock)
	wakes := 0
	for base := 0; base < n; base += simBlock {
		f := fired[:min(simBlock, n-base)]
		for k := range f {
			f[k] = true // stale bits fire must clear
		}
		feed.fire(f, base)
		for k, hit := range f {
			want := false
			for ci, ch := range plan.Channels {
				if len(single.PushSample(ch, feed.channels[ci][base+k])) > 0 {
					want = true
				}
			}
			if hit != want {
				t.Fatalf("sample %d: block fired = %v, per-sample fired = %v", base+k, hit, want)
			}
			if hit {
				wakes++
			}
		}
	}
	if wakes == 0 {
		t.Fatal("trace produced no wakes; test is vacuous")
	}
}

// replayPerSample is the per-sample loop wakeWindow.replay replaced, kept
// as its oracle: every sample visits, idles and steps the clock.
func replayPerSample(w *wakeWindow, fired []bool, base int, visit func(i int, hit bool)) {
	dt := 1 / w.c.rate
	for k, hit := range fired {
		i := base + k
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

// replayRun replays c's bitmap through the window either with replay or
// with the per-sample oracle and returns the window and a log
// of what the caller's visit saw act: firings, wake verdicts and deadline
// expiries, each with its sample index.
func replayRun(c replayCase, perSample bool) (*wakeWindow, []string) {
	rng := rand.New(rand.NewSource(int64(c.n) ^ int64(c.hold)<<20))
	bitmap := make([]bool, c.n)
	for i := range bitmap {
		bitmap[i] = rng.Float64() < c.density
	}
	for _, i := range c.force {
		bitmap[i] = true
	}
	w := newWakeWindow(power.NewPhone(power.Nexus4()), c.rate, c.preBuffer, c.hold)
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
	fired := make([]bool, simBlock)
	for base := 0; base < c.n; base += simBlock {
		f := fired[:min(simBlock, c.n-base)]
		copy(f, bitmap[base:])
		if perSample {
			replayPerSample(w, f, base, visit)
		} else {
			w.replay(f, base, visit, until)
		}
	}
	return w, log
}

// TestReplayMatchesPerSample checks the quiet-run replay against the
// per-sample loop it replaced: the same delivered intervals, wake-ups,
// visit log and, bit for bit, every state's dwell and the clock.
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
			wantW, wantLog := replayRun(c, true)
			gotW, gotLog := replayRun(c, false)
			wantC, gotC := &wantW.c, &gotW.c
			if want, got := wantW.close(c.n), gotW.close(c.n); !reflect.DeepEqual(got, want) {
				t.Fatalf("intervals = %v, want %v", got, want)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("visit log = %v, want %v", gotLog, wantLog)
			}
			if got, want := gotC.ph.WakeUps(), wantC.ph.WakeUps(); got != want {
				t.Fatalf("wake-ups = %d, want %d", got, want)
			}
			if gotC.ph.State() != wantC.ph.State() {
				t.Fatalf("final state = %s, want %s", gotC.ph.State(), wantC.ph.State())
			}
			for s := power.Asleep; s <= power.FallingAsleep; s++ {
				if got, want := gotC.ph.Dwell(s), wantC.ph.Dwell(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s dwell = %v, want %v", s, got, want)
				}
			}
			if math.Float64bits(gotC.t) != math.Float64bits(wantC.t) {
				t.Fatalf("clock = %v, want %v", gotC.t, wantC.t)
			}
			if c.density > 0 && wantC.ph.WakeUps() == 0 {
				t.Fatal("no wake-ups: case is vacuous")
			}
		})
	}
}
