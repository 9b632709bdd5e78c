package eval

import (
	"strings"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/sim"
)

// testOptions keeps the harness fast: short traces, fewer intervals.
func testOptions() Options {
	return Options{
		Seed:             3,
		RobotRunDuration: 3 * time.Minute,
		AudioDuration:    4 * time.Minute,
		HumanDuration:    12 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
}

// sharedWorkload is generated once for the whole test package.
var sharedWorkload *Workload

func workload(t *testing.T) *Workload {
	t.Helper()
	if sharedWorkload == nil {
		w, err := GenerateWorkload(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		sharedWorkload = w
	}
	return sharedWorkload
}

func TestGenerateWorkload(t *testing.T) {
	w := workload(t)
	if len(w.RobotRuns) != 18 {
		t.Errorf("robot runs = %d, want 18", len(w.RobotRuns))
	}
	if len(w.Audio) != 3 || len(w.Human) != 3 {
		t.Errorf("audio/human = %d/%d, want 3/3", len(w.Audio), len(w.Human))
	}
	if got := len(w.RobotGroup(1)); got != 9 {
		t.Errorf("group 1 = %d runs, want 9", got)
	}
	if got := len(w.RobotGroup(3)); got != 3 {
		t.Errorf("group 3 = %d runs, want 3", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
		Note:   "note",
	}
	out := tb.Render()
	for _, want := range []string{"demo", "long-header", "yyyy", "note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 4 {
		t.Fatalf("table 1 has %d rows", len(tb.Rows))
	}
	want := map[string]string{
		"Awake, running sensor-driven application": "323.0",
		"Asleep":                     "9.7",
		"Asleep-to-Awake Transition": "384.0",
		"Awake-to-Asleep Transition": "341.0",
	}
	for _, row := range tb.Rows {
		if got := row[1]; got != want[row[0]] {
			t.Errorf("%s = %s, want %s", row[0], got, want[row[0]])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	w := workload(t)
	res, err := Table2(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.PAThreshold <= 0 {
		t.Errorf("PA threshold = %g", res.PAThreshold)
	}
	if res.Devices["sirens"] != "LM4F120" {
		t.Errorf("sirens device = %s, want LM4F120 (Table 2 asterisk)", res.Devices["sirens"])
	}
	if res.Devices["music"] != "MSP430" || res.Devices["phrase"] != "MSP430" {
		t.Errorf("music/phrase devices = %s/%s, want MSP430", res.Devices["music"], res.Devices["phrase"])
	}
	for _, app := range []string{"sirens", "music", "phrase"} {
		oracle := res.PowerMW["Oracle"][app]
		sw := res.PowerMW["Sidewinder"][app]
		pa := res.PowerMW["Predefined Activity"][app]
		if rec := res.Recall["Sidewinder"][app]; rec < 0.99 {
			t.Errorf("%s: Sidewinder recall = %.2f, want ~1 (conservative conditions)", app, rec)
		}
		if oracle <= 9.7 || oracle >= 323 {
			t.Errorf("%s oracle = %.1f out of range", app, oracle)
		}
		if sw < oracle {
			t.Errorf("%s: Sidewinder (%.1f) beats oracle (%.1f)", app, sw, oracle)
		}
		if pa >= 323 || sw >= 323 {
			t.Errorf("%s: no savings over always-awake (pa %.1f, sw %.1f)", app, pa, sw)
		}
	}
	// Paper shape: PA wastes power on music and phrase relative to
	// Sidewinder (45% and 60% more in the paper).
	if res.PowerMW["Predefined Activity"]["music"] <= res.PowerMW["Sidewinder"]["music"] {
		t.Error("PA should cost more than Sidewinder for music")
	}
	if res.PowerMW["Predefined Activity"]["phrase"] <= res.PowerMW["Sidewinder"]["phrase"] {
		t.Error("PA should cost more than Sidewinder for phrase detection")
	}
	if res.Table.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure5Shape(t *testing.T) {
	o := testOptions()
	w := workload(t)
	res, err := Figure5(o, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 {
		t.Fatalf("want one table per accel app, got %d", len(res.Tables))
	}
	for _, app := range []string{"steps", "transitions", "headbutts"} {
		for group := 1; group <= 3; group++ {
			rel := res.Relative[app][group]
			if rel["AA"] < 1 {
				t.Errorf("%s g%d: AA %.2fx should be above oracle", app, group, rel["AA"])
			}
			if rel["Sw"] > rel["AA"] {
				t.Errorf("%s g%d: Sidewinder (%.2fx) worse than always-awake (%.2fx)", app, group, rel["Sw"], rel["AA"])
			}
			if rel["Sw"] > rel["PA"] {
				t.Errorf("%s g%d: Sidewinder (%.2fx) worse than predefined activity (%.2fx)", app, group, rel["Sw"], rel["PA"])
			}
			// Always-Awake recall is the classifier's ceiling; the
			// conservative wake-up mechanisms must reach it.
			ceiling := res.Recall[app][group]["AA"]
			if rec := res.Recall[app][group]["Sw"]; rec < ceiling-0.02 {
				t.Errorf("%s g%d: Sidewinder recall %.2f below AA ceiling %.2f", app, group, rec, ceiling)
			}
			if rec := res.Recall[app][group]["Ba-10s"]; rec < ceiling-0.02 {
				t.Errorf("%s g%d: batching recall %.2f below AA ceiling %.2f", app, group, rec, ceiling)
			}
		}
		// AA relative cost shrinks as activity grows (oracle rises).
		if res.Relative[app][1]["AA"] <= res.Relative[app][3]["AA"] {
			t.Errorf("%s: AA ratio should fall from group 1 to 3", app)
		}
	}
	// Rare events: PA pays far more than Sidewinder (paper: 4.7x).
	if ratio := res.Relative["headbutts"][1]["PA"] / res.Relative["headbutts"][1]["Sw"]; ratio < 2 {
		t.Errorf("PA/Sw for headbutts = %.1fx, want >> 1 (paper 4.7x)", ratio)
	}
}

func TestFigure6Shape(t *testing.T) {
	o := testOptions()
	w := workload(t)
	res, err := Figure6(o, w)
	if err != nil {
		t.Fatal(err)
	}
	for app, recalls := range res.Recall {
		if recalls[2] < recalls[30] {
			t.Errorf("%s: recall at 2s (%.2f) below recall at 30s (%.2f)", app, recalls[2], recalls[30])
		}
		if recalls[30] > 0.6 {
			t.Errorf("%s: 30s duty cycling recall %.2f implausibly high", app, recalls[30])
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	o := testOptions()
	w := workload(t)
	res, err := Figure7(o, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range w.Human {
		rel := res.Relative[tr.Name]
		if rel["Sw"] > rel["AA"] || rel["Sw"] > rel["PA"] {
			t.Errorf("%s: Sw %.2fx vs AA %.2fx PA %.2fx", tr.Name, rel["Sw"], rel["AA"], rel["PA"])
		}
		if res.Recall[tr.Name]["Sw"] < 0.95 {
			t.Errorf("%s: Sidewinder recall vs AA baseline = %.2f", tr.Name, res.Recall[tr.Name]["Sw"])
		}
		if res.Recall[tr.Name]["Ba-10s"] < 0.95 {
			t.Errorf("%s: batching recall = %.2f", tr.Name, res.Recall[tr.Name]["Ba-10s"])
		}
		if s := res.SidewinderSavings[tr.Name]; s < 0.75 || s > 1.01 {
			t.Errorf("%s: Sidewinder savings share = %.2f (paper >= 0.91)", tr.Name, s)
		}
	}
}

func TestSavingsShape(t *testing.T) {
	o := testOptions()
	w := workload(t)
	res, err := Savings(o, w)
	if err != nil {
		t.Fatal(err)
	}
	for app, groups := range res.AccelSavings {
		for g, share := range groups {
			if share < 0.7 || share > 1.01 {
				t.Errorf("%s group %d: savings share %.2f outside plausible band (paper 0.927-0.957)", app, g, share)
			}
		}
	}
	for app, share := range res.AudioSavings {
		if share < 0.6 || share > 1.01 {
			t.Errorf("%s: audio savings share %.2f (paper 0.85-0.98)", app, share)
		}
	}
	if res.OracleMinMW <= 9.7 || res.OracleMaxMW >= 323 || res.OracleMinMW > res.OracleMaxMW {
		t.Errorf("oracle bounds [%.1f, %.1f] implausible", res.OracleMinMW, res.OracleMaxMW)
	}
}

func TestCalibratePAFindsThreshold(t *testing.T) {
	w := workload(t)
	cal, err := calibratePA(w.Workers, sim.SignificantMotion, w.RobotRuns[:3], apps.AccelApps(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := cal.pa.Threshold
	if th <= 0 {
		t.Fatalf("threshold = %g", th)
	}
	// The calibrated threshold must sit above idle noise (~0.05 m/s²
	// magnitude std) or PA would never sleep.
	if th < 0.05 {
		t.Errorf("threshold %.3f below idle noise floor", th)
	}
}

func TestGeometricGrid(t *testing.T) {
	g := geometric(1, 100, 3)
	if len(g) != 3 || g[0] != 1 || g[2] != 100 {
		t.Fatalf("geometric = %v", g)
	}
	if g[1] < 9.9 || g[1] > 10.1 {
		t.Errorf("midpoint = %g, want ~10", g[1])
	}
}

func TestDeviceSweep(t *testing.T) {
	w := workload(t)
	res, err := DeviceSweep(w)
	if err != nil {
		t.Fatal(err)
	}
	// Sirens must be infeasible on the MSP430 and present on the LM4F120.
	if _, ok := res.PowerMW["sirens"]["MSP430"]; ok {
		t.Error("sirens should be infeasible on the MSP430")
	}
	if _, ok := res.PowerMW["sirens"]["LM4F120"]; !ok {
		t.Error("sirens missing on the LM4F120")
	}
	// Where both devices work, the big part must cost more.
	for app, byDev := range res.PowerMW {
		small, okS := byDev["MSP430"]
		big, okB := byDev["LM4F120"]
		if okS && okB && big <= small {
			t.Errorf("%s: LM4F120 (%.1f) should cost more than MSP430 (%.1f)", app, big, small)
		}
	}
}

func TestConditionAblation(t *testing.T) {
	w := workload(t)
	res, err := ConditionAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	variants := StepsConditionVariants()
	if len(variants) != 3 {
		t.Fatalf("want 3 variants, got %d", len(variants))
	}
	naive := res.PowerMW[variants[0].Label]
	full := res.PowerMW[variants[2].Label]
	if naive < full {
		t.Errorf("naive condition (%.1f mW) should cost at least the tuned one (%.1f mW)", naive, full)
	}
	for _, v := range variants {
		if res.Recall[v.Label] < res.Recall[variants[0].Label]-0.02 {
			t.Errorf("%s: recall %.2f below the naive baseline", v.Label, res.Recall[v.Label])
		}
	}
}

func TestBatchingLatency(t *testing.T) {
	o := testOptions()
	w := workload(t)
	res, err := BatchingLatency(o, w)
	if err != nil {
		t.Fatal(err)
	}
	intervals := o.SleepIntervals
	for i := 1; i < len(intervals); i++ {
		lo, hi := intervals[i-1], intervals[i]
		if res.PowerMW[hi] >= res.PowerMW[lo] {
			t.Errorf("power should fall with interval: %.1f at %gs vs %.1f at %gs",
				res.PowerMW[hi], hi, res.PowerMW[lo], lo)
		}
		if res.LatencySec[hi] <= res.LatencySec[lo] {
			t.Errorf("latency should grow with interval: %.1fs at %gs vs %.1fs at %gs",
				res.LatencySec[hi], hi, res.LatencySec[lo], lo)
		}
	}
	// Latency is bounded below by roughly half the cycle period.
	if res.LatencySec[intervals[len(intervals)-1]] < 2 {
		t.Error("long batching intervals should show multi-second latency")
	}
}

func TestPipelineSharing(t *testing.T) {
	res, err := PipelineSharing()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	// Music and phrase share both window stages, so the pairwise saving
	// must be substantial; across all six apps it dilutes.
	if res.SavedFrac <= 0 || res.SavedFrac > 0.5 {
		t.Errorf("all-apps sharing fraction = %.2f, want in (0, 0.5]", res.SavedFrac)
	}
}

func TestSirenRedesign(t *testing.T) {
	w := workload(t)
	res, err := SirenRedesign(w)
	if err != nil {
		t.Fatal(err)
	}
	const fft = "FFT tonality (paper)"
	const goe = "Goertzel bank (extension)"
	if res.Device[fft] != "LM4F120" {
		t.Errorf("FFT condition on %s, want LM4F120", res.Device[fft])
	}
	if res.Device[goe] != "MSP430" {
		t.Errorf("Goertzel condition on %s, want MSP430", res.Device[goe])
	}
	if res.Recall[goe] < res.Recall[fft]-0.01 {
		t.Errorf("Goertzel recall %.2f below FFT recall %.2f", res.Recall[goe], res.Recall[fft])
	}
	if res.PowerMW[goe] >= res.PowerMW[fft] {
		t.Errorf("Goertzel condition (%.1f mW) should beat the FFT one (%.1f mW)",
			res.PowerMW[goe], res.PowerMW[fft])
	}
	// The saving should be dominated by dropping the 49.4 - 3.6 mW hub.
	if gap := res.PowerMW[fft] - res.PowerMW[goe]; gap < 30 {
		t.Errorf("power gap = %.1f mW, want >= 30 (device downgrade)", gap)
	}
}

func TestBatteryLife(t *testing.T) {
	w := workload(t)
	res, err := BatteryLife(w)
	if err != nil {
		t.Fatal(err)
	}
	for app, byCfg := range res.Hours {
		aa := byCfg["Always Awake"]
		sw := byCfg["Sidewinder"]
		oracle := byCfg["Oracle"]
		if aa < 24 || aa > 26 {
			t.Errorf("%s: always-awake life = %.1f h, want ~24.7", app, aa)
		}
		if !(oracle >= sw && sw > aa) {
			t.Errorf("%s: life ordering violated: aa %.1f, sw %.1f, oracle %.1f", app, aa, sw, oracle)
		}
		// The paper's headline: Sidewinder turns ~1 day into many days
		// for rare-event applications.
		if app == "headbutts" && sw < 5*24 {
			t.Errorf("headbutts Sidewinder life = %.1f h, want > 5 days", sw)
		}
	}
}

func TestAdaptiveTuning(t *testing.T) {
	w := workload(t)
	res, err := AdaptiveTuning(w)
	if err != nil {
		t.Fatal(err)
	}
	staticFP := res.WakesFirstHalf["static"] + res.WakesSecondHalf["static"]
	tunedFP := res.WakesFirstHalf["tuned"] + res.WakesSecondHalf["tuned"]
	if tunedFP > staticFP {
		t.Errorf("tuning increased FP wakes: %d vs %d", tunedFP, staticFP)
	}
	if res.FinalFactor <= 1 {
		t.Errorf("feedback never tightened the threshold: factor %.2f", res.FinalFactor)
	}
	if res.Recall["tuned"] < res.Recall["static"]-0.05 {
		t.Errorf("tuning cost recall: %.2f vs %.2f", res.Recall["tuned"], res.Recall["static"])
	}
}

func TestLinkReliability(t *testing.T) {
	w := workload(t)
	res, err := LinkReliability(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawRecall[0] != 1 || res.ARQRecall[0] != 1 {
		t.Errorf("clean wire should deliver everything: raw %.2f, arq %.2f",
			res.RawRecall[0], res.ARQRecall[0])
	}
	for rate, recall := range res.ARQRecall {
		if recall != 1 {
			t.Errorf("ARQ recall at %.0f%% error = %.3f, want 1", rate*100, recall)
		}
	}
	if res.RawRecall[0.20] >= 1 {
		t.Errorf("raw link at 20%% error lost nothing (recall %.3f); faults inert", res.RawRecall[0.20])
	}
	if res.Retransmits[0.20] <= res.Retransmits[0] {
		t.Errorf("retransmits did not grow with error rate: %d at 0%%, %d at 20%%",
			res.Retransmits[0], res.Retransmits[0.20])
	}

	// The sweep must render identically at any worker count: the pool
	// collects results in submission order.
	serial := *w
	serial.Workers = 1
	sres, err := LinkReliability(&serial)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sres.Table.Render(), res.Table.Render(); got != want {
		t.Errorf("worker count changed the table:\n--- parallel\n%s\n--- serial\n%s", want, got)
	}
}
