package sim

import (
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
	w := newWakeWindow(ph, 3, 1)

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
