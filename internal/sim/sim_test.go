package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

func robotTrace(t *testing.T, idle float64) *sensor.Trace {
	t.Helper()
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 7, Duration: 10 * time.Minute, IdleFraction: idle})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]Interval{{5, 10}, {0, 3}, {9, 12}, {3, 4}})
	want := []Interval{{0, 4}, {5, 12}}
	if len(got) != len(want) {
		t.Fatalf("mergeIntervals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
	if mergeIntervals(nil) != nil {
		t.Error("empty merge should be nil")
	}
}

func TestMatchMetrics(t *testing.T) {
	truth := []sensor.Event{
		{Label: "e", Start: 100, End: 120},
		{Label: "e", Start: 300, End: 320},
		{Label: "e", Start: 500, End: 520},
	}
	dets := []sensor.Event{
		{Label: "e", Start: 105, End: 110}, // hits #1
		{Label: "e", Start: 290, End: 305}, // hits #2
		{Label: "e", Start: 700, End: 710}, // false positive
	}
	recall, precision, tp, fp := Match(truth, dets, 0)
	if math.Abs(recall-2.0/3) > 1e-12 {
		t.Errorf("recall = %g, want 2/3", recall)
	}
	if math.Abs(precision-2.0/3) > 1e-12 {
		t.Errorf("precision = %g, want 2/3", precision)
	}
	if tp != 2 || fp != 1 {
		t.Errorf("tp/fp = %d/%d", tp, fp)
	}
	// Tolerance rescues a near miss.
	recall, _, _, _ = Match(truth, []sensor.Event{{Label: "e", Start: 525, End: 530}}, 10)
	if math.Abs(recall-1.0/3) > 1e-12 {
		t.Errorf("tolerant recall = %g, want 1/3", recall)
	}
	// Degenerate cases.
	r, p, _, _ := Match(nil, nil, 0)
	if r != 1 || p != 1 {
		t.Errorf("empty match = %g/%g, want 1/1", r, p)
	}
}

func TestAlwaysAwakeBaseline(t *testing.T) {
	tr := robotTrace(t, 0.9)
	res, err := AlwaysAwake{}.Run(tr, apps.Steps())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Power.TotalAvgMW-323) > 1e-9 {
		t.Errorf("always-awake power = %g, want 323 (paper §5.1)", res.Power.TotalAvgMW)
	}
	if res.Power.WakeUps != 0 {
		t.Errorf("always-awake wakeups = %d", res.Power.WakeUps)
	}
	if res.Recall < 0.95 {
		t.Errorf("always-awake recall = %.3f", res.Recall)
	}
}

func TestOraclePowerScalesWithActivity(t *testing.T) {
	var prev float64 = -1
	for _, idle := range []float64{0.9, 0.5, 0.1} {
		tr := robotTrace(t, idle)
		res, err := Oracle{}.Run(tr, apps.Steps())
		if err != nil {
			t.Fatal(err)
		}
		if res.Recall != 1 || res.Precision != 1 {
			t.Errorf("oracle metrics not perfect: %+v", res)
		}
		if res.Power.TotalAvgMW <= prev {
			t.Errorf("oracle power should grow with activity: %.1f after %.1f (idle %.0f%%)",
				res.Power.TotalAvgMW, prev, idle*100)
		}
		prev = res.Power.TotalAvgMW
		if res.Power.TotalAvgMW >= 323 {
			t.Errorf("oracle should beat always-awake, got %.1f", res.Power.TotalAvgMW)
		}
	}
}

func TestOracleBeatsEverythingOnPower(t *testing.T) {
	tr := robotTrace(t, 0.5)
	app := apps.Headbutts()
	oracle, err := Oracle{}.Run(tr, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{
		DutyCycling{SleepSec: 10},
		Batching{SleepSec: 10},
		PredefinedActivity{Kind: SignificantMotion, Threshold: 0.15},
		Sidewinder{},
	} {
		res, err := s.Run(tr, app)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Power.TotalAvgMW < oracle.Power.TotalAvgMW {
			t.Errorf("%s (%.1f mW) beat the oracle (%.1f mW)", s.Name(), res.Power.TotalAvgMW, oracle.Power.TotalAvgMW)
		}
	}
}

func TestDutyCyclingRecallDropsWithSleepInterval(t *testing.T) {
	tr := robotTrace(t, 0.9)
	app := apps.Transitions()
	var prevRecall = 2.0
	var prevPower = 1e9
	for _, sleep := range []float64{2, 10, 30} {
		res, err := DutyCycling{SleepSec: sleep}.Run(tr, app)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recall > prevRecall+0.05 {
			t.Errorf("recall should fall with interval: %.2f at %gs after %.2f", res.Recall, sleep, prevRecall)
		}
		if res.Power.TotalAvgMW > prevPower+1 {
			t.Errorf("power should fall with interval: %.1f at %gs after %.1f", res.Power.TotalAvgMW, sleep, prevPower)
		}
		prevRecall, prevPower = res.Recall, res.Power.TotalAvgMW
	}
	if prevRecall > 0.5 {
		t.Errorf("30s duty cycling recall = %.2f; paper reports deep losses", prevRecall)
	}
}

func TestDutyCyclingValidation(t *testing.T) {
	tr := robotTrace(t, 0.9)
	if _, err := (DutyCycling{}).Run(tr, apps.Steps()); err == nil {
		t.Error("zero sleep interval should fail")
	}
	if _, err := (Batching{}).Run(tr, apps.Steps()); err == nil {
		t.Error("zero batching interval should fail")
	}
}

func TestBatchingPerfectRecall(t *testing.T) {
	tr := robotTrace(t, 0.5)
	for _, app := range apps.AccelApps() {
		res, err := Batching{SleepSec: 10}.Run(tr, app)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recall < 0.95 {
			t.Errorf("%s batching recall = %.3f, want ~1 (data is cached)", app.Name, res.Recall)
		}
		if res.Power.HubMW != 3.6 {
			t.Errorf("batching must include the MSP430 (3.6 mW), got %g", res.Power.HubMW)
		}
	}
}

func TestPredefinedActivitySameWakeupsForAllAccelApps(t *testing.T) {
	// PA is app-agnostic: it wakes on significant motion regardless of
	// the app, so wake-up counts must be identical (paper §5.3: one
	// power figure for all audio apps).
	tr := robotTrace(t, 0.5)
	pa := PredefinedActivity{Kind: SignificantMotion, Threshold: 0.15}
	var wakes []int
	for _, app := range apps.AccelApps() {
		res, err := pa.Run(tr, app)
		if err != nil {
			t.Fatal(err)
		}
		wakes = append(wakes, res.Power.WakeUps)
		if res.Recall < 0.95 {
			t.Errorf("%s PA recall = %.3f", app.Name, res.Recall)
		}
	}
	if wakes[0] != wakes[1] || wakes[1] != wakes[2] {
		t.Errorf("PA wake-ups differ across apps: %v", wakes)
	}
}

func TestPredefinedActivityErrors(t *testing.T) {
	tr := robotTrace(t, 0.9)
	if _, err := (PredefinedActivity{Kind: SignificantSound, Threshold: 1}).Run(tr, apps.Steps()); err == nil {
		t.Error("sound detector on an accel trace should fail")
	}
	if _, err := (PredefinedActivity{Kind: PAKind(9), Threshold: 1}).Run(tr, apps.Steps()); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestSidewinderAchievesMostOracleSavings(t *testing.T) {
	// Paper §5.2: Sidewinder reaches 92.7-95.7% of the possible savings
	// on accelerometer apps. Allow a wide band but require > 80%.
	tr := robotTrace(t, 0.5)
	for _, app := range apps.AccelApps() {
		oracle, err := Oracle{}.Run(tr, app)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := Sidewinder{}.Run(tr, app)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Recall < 1 {
			t.Errorf("%s Sidewinder recall = %.3f, want 1.0", app.Name, sw.Recall)
		}
		savings := (323 - sw.Power.TotalAvgMW) / (323 - oracle.Power.TotalAvgMW)
		if savings < 0.80 {
			t.Errorf("%s Sidewinder achieves only %.0f%% of oracle savings (sw %.1f, oracle %.1f)",
				app.Name, savings*100, sw.Power.TotalAvgMW, oracle.Power.TotalAvgMW)
		}
		if sw.Device == "" {
			t.Errorf("%s: no hub device recorded", app.Name)
		}
		if sw.HubUtilization <= 0 || sw.HubUtilization > 0.5 {
			t.Errorf("%s: hub utilization %.3f out of range", app.Name, sw.HubUtilization)
		}
	}
}

// TestSidewinderTraceMissingChannel checks that every entry point that
// replays an app's wake condition refuses a trace lacking the app's
// channel with the channel resolver's error, instead of replaying nothing.
func TestSidewinderTraceMissingChannel(t *testing.T) {
	tr := robotTrace(t, 0.9)
	app := apps.Sirens()
	want := fmt.Sprintf("sim: trace %q lacks channel %s required by %s", tr.Name, core.Mic, app.Name)
	runs := []struct {
		name string
		run  func() error
	}{
		{"Sidewinder", func() error { _, err := Sidewinder{}.Run(tr, app); return err }},
		{"AdaptiveSidewinder", func() error { _, err := AdaptiveSidewinder{}.Run(tr, app); return err }},
		{"CrashRun", func() error { _, err := CrashRun(tr, app, CrashRunConfig{}); return err }},
		{"LossyLinkRun", func() error { _, err := LossyLinkRun(tr, app, LossyLinkConfig{}); return err }},
	}
	for _, r := range runs {
		if err := r.run(); err == nil || err.Error() != want {
			t.Errorf("%s: audio app on an accel trace: err = %v, want %q", r.name, err, want)
		}
	}
}

func TestRescoreAgainst(t *testing.T) {
	tr := robotTrace(t, 0.9)
	app := apps.Steps()
	aa, err := AlwaysAwake{}.Run(tr, app)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sidewinder{}.Run(tr, app)
	if err != nil {
		t.Fatal(err)
	}
	sw.RescoreAgainst(aa.Detections, int(app.MatchTolSec*tr.RateHz))
	if sw.Recall < 0.9 {
		t.Errorf("recall vs always-awake baseline = %.3f", sw.Recall)
	}
	if len(sw.Truth) != len(aa.Detections) {
		t.Error("RescoreAgainst did not adopt the new truth")
	}
}

func TestResultString(t *testing.T) {
	tr := robotTrace(t, 0.9)
	res, err := Oracle{}.Run(tr, apps.Steps())
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty result string")
	}
}

func TestDedupeEvents(t *testing.T) {
	in := []sensor.Event{
		{Label: "a", Start: 0, End: 10},
		{Label: "a", Start: 5, End: 15},
		{Label: "a", Start: 20, End: 25},
		{Label: "b", Start: 22, End: 30},
	}
	out := dedupeEvents(in)
	if len(out) != 3 {
		t.Fatalf("dedupe = %v", out)
	}
	if out[0].End != 15 {
		t.Errorf("merged end = %d, want 15", out[0].End)
	}
}

func TestPhoneDwellConservation(t *testing.T) {
	// Whatever the strategy, total dwell equals trace duration.
	tr := robotTrace(t, 0.5)
	for _, s := range []Strategy{
		AlwaysAwake{}, Oracle{}, DutyCycling{SleepSec: 5}, Batching{SleepSec: 5},
		PredefinedActivity{Kind: SignificantMotion, Threshold: 0.15}, Sidewinder{},
	} {
		res, err := s.Run(tr, apps.Steps())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		total := res.Power.AsleepSec + res.Power.AwakeSec + res.Power.WakingSec + res.Power.SleepingSec
		want := float64(tr.Len()) / tr.RateHz
		if math.Abs(total-want) > 0.5 {
			t.Errorf("%s: dwell %.2f s, trace %.2f s", s.Name(), total, want)
		}
	}
}

func TestMeanDetectionLatency(t *testing.T) {
	r := &Result{
		Truth: []sensor.Event{
			{Label: "e", Start: 100, End: 120},
			{Label: "e", Start: 500, End: 520},
			{Label: "e", Start: 9000, End: 9010}, // never delivered
		},
		Deliveries: []Delivery{
			{Start: 0, End: 300, At: 300},
			{Start: 300, End: 600, At: 650},
		},
	}
	// Event 1: delivered at 300, started at 100 -> 200 samples = 4 s at
	// 50 Hz. Event 2: delivered at 650, started at 500 -> 150 = 3 s.
	lat, ok := r.MeanDetectionLatencySec(50)
	if !ok {
		t.Fatal("latency should be measurable")
	}
	if math.Abs(lat-3.5) > 1e-9 {
		t.Errorf("latency = %g s, want 3.5", lat)
	}
	// No deliveries -> not measurable.
	if _, ok := (&Result{Truth: r.Truth}).MeanDetectionLatencySec(50); ok {
		t.Error("no deliveries should be unmeasurable")
	}
	if _, ok := r.MeanDetectionLatencySec(0); ok {
		t.Error("zero rate should be unmeasurable")
	}
}

func TestDutyCyclingRecordsDeliveries(t *testing.T) {
	tr := robotTrace(t, 0.9)
	res, err := DutyCycling{SleepSec: 10}.Run(tr, apps.Steps())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) == 0 {
		t.Fatal("duty cycling should record deliveries")
	}
	for _, d := range res.Deliveries {
		if d.At < d.End {
			t.Errorf("delivery %+v happens before its data ends", d)
		}
	}
	if lat, ok := res.MeanDetectionLatencySec(tr.RateHz); ok && lat < 0 {
		t.Errorf("negative latency %g", lat)
	}
}
