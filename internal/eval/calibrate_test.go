package eval

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// plainScan is the calibration scan without grading, fan-out, reordering
// or early stop: every step runs the predefined activity afresh at its
// threshold on the pairs in order against freshly run Always-Awake
// ceilings. It returns the threshold and, keyed by truthKey, that step's
// results.
func plainScan(t *testing.T, kind sim.PAKind, traces []*sensor.Trace, appList []*apps.App, truths map[string][]sensor.Event) (float64, map[string]*sim.Result) {
	t.Helper()
	pairs := calibrationPairs(traces, appList)
	ceilings := make([]float64, len(pairs))
	for i, p := range pairs {
		aa, err := (sim.AlwaysAwake{}).Run(p.tr, p.app)
		if err != nil {
			t.Fatal(err)
		}
		if truth, ok := truths[truthKey(p.tr, p.app)]; ok {
			aa.RescoreAgainst(truth, int(p.app.MatchTolSec*p.tr.RateHz))
		}
		ceilings[i] = aa.Recall
	}
	grid := motionGrid
	if kind == sim.SignificantSound {
		grid = soundGrid
	}
	for g := len(grid) - 1; g >= 0; g-- {
		ran := make(map[string]*sim.Result, len(pairs))
		for i, p := range pairs {
			res, err := (sim.PredefinedActivity{Kind: kind, Threshold: grid[g]}).Run(p.tr, p.app)
			if err != nil {
				t.Fatal(err)
			}
			if truth, ok := truths[truthKey(p.tr, p.app)]; ok {
				res.RescoreAgainst(truth, int(p.app.MatchTolSec*p.tr.RateHz))
			}
			if res.Recall < ceilings[i]-1e-9 {
				ran = nil
				break
			}
			ran[truthKey(p.tr, p.app)] = res
		}
		if ran != nil {
			return grid[g], ran
		}
	}
	t.Fatal("plain scan found no threshold")
	return 0, nil
}

// humanTruths is Figure 7's pseudo ground truth: Always-Awake detections.
func humanTruths(t *testing.T, w *Workload) map[string][]sensor.Event {
	t.Helper()
	truths := make(map[string][]sensor.Event)
	for _, tr := range w.Human {
		aa, err := (sim.AlwaysAwake{}).Run(tr, apps.Steps())
		if err != nil {
			t.Fatal(err)
		}
		truths[truthKey(tr, apps.Steps())] = aa.Detections
	}
	return truths
}

// TestCalibrationScanMatchesPlainScan checks that grading each trace once,
// checking the binding pair first, fanning out and stopping early change
// nothing: the scan lands on the plain descending scan's threshold for
// both detector kinds and for Figure 7's pseudo-truth path, serially and
// in parallel, and its results equal the plain scan's in every field.
func TestCalibrationScanMatchesPlainScan(t *testing.T) {
	w := workload(t)
	cases := []struct {
		name    string
		kind    sim.PAKind
		traces  []*sensor.Trace
		appList []*apps.App
		truths  map[string][]sensor.Event
	}{
		{"motion", sim.SignificantMotion, w.RobotRuns[:6], apps.AccelApps(), nil},
		{"sound", sim.SignificantSound, w.Audio, apps.AudioApps(), nil},
		{"human truths", sim.SignificantMotion, w.Human, []*apps.App{apps.Steps()}, humanTruths(t, w)},
	}
	for _, c := range cases {
		want, wantRes := plainScan(t, c.kind, c.traces, c.appList, c.truths)
		for _, workers := range []int{1, 2} {
			cal, err := calibratePA(workers, c.kind, c.traces, c.appList, c.truths, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cal.pa != (sim.PredefinedActivity{Kind: c.kind, Threshold: want}) {
				t.Errorf("%s, %d workers: calibrated %+v, plain scan threshold %.17g", c.name, workers, cal.pa, want)
			}
			if len(cal.paRes) != len(wantRes) {
				t.Fatalf("%s, %d workers: %d results, plain scan %d", c.name, workers, len(cal.paRes), len(wantRes))
			}
			for key, w := range wantRes {
				if got := cal.paRes[key]; !reflect.DeepEqual(got, w) {
					t.Fatalf("%s, %d workers: %s: result %+v, plain scan %+v", c.name, workers, key, got, w)
				}
			}
		}
	}
}

// TestCalibrationCellsMatchFreshRuns checks what the experiments reuse:
// the Always-Awake and predefined-activity cells a calibration hands to
// Table 2, Figure 5 and Figure 7 equal fresh runs at the calibrated
// threshold in every field (rescored against the pseudo truth on Figure
// 7's path, as Figure 7 rescores its own cells), and they come back
// without enqueuing a run.
func TestCalibrationCellsMatchFreshRuns(t *testing.T) {
	w := workload(t)
	cases := []struct {
		name    string
		kind    sim.PAKind
		traces  []*sensor.Trace
		appList []*apps.App
		truths  map[string][]sensor.Event
	}{
		{"table 2", sim.SignificantSound, w.Audio, apps.AudioApps(), nil},
		{"figure 5", sim.SignificantMotion, w.RobotRuns, apps.AccelApps(), nil},
		{"figure 7", sim.SignificantMotion, w.Human, []*apps.App{apps.Steps()}, humanTruths(t, w)},
	}
	for _, c := range cases {
		cal, err := calibratePA(w.Workers, c.kind, c.traces, c.appList, c.truths, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []sim.Strategy{sim.AlwaysAwake{}, cal.pa} {
			for _, app := range c.appList {
				var b runBatch
				cells := cal.add(&b, s, c.traces, app)
				for _, j := range b.jobs {
					if j.done == nil {
						t.Fatalf("%s: %s/%s enqueued a run calibration already made", c.name, s.Name(), app.Name)
					}
				}
				b.run(w.Workers, w.Telemetry, w.Precision)
				got, err := cells.results()
				if err != nil {
					t.Fatal(err)
				}
				for ti, tr := range c.traces {
					want, err := s.Run(tr, app)
					if err != nil {
						t.Fatal(err)
					}
					if truth, ok := c.truths[truthKey(tr, app)]; ok {
						want.RescoreAgainst(truth, int(app.MatchTolSec*tr.RateHz))
						got[ti].RescoreAgainst(truth, int(app.MatchTolSec*tr.RateHz))
					}
					if !reflect.DeepEqual(got[ti], want) {
						t.Fatalf("%s: %s/%s on %s: reused cell %v, fresh run %v", c.name, s.Name(), app.Name, tr.Name, got[ti], want)
					}
				}
			}
		}
	}

	// Strategies calibration did not run still run.
	cal, err := calibratePA(w.Workers, sim.SignificantSound, w.Audio, apps.AudioApps(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := cal.pa
	other.Threshold *= 2
	var b runBatch
	for _, s := range []sim.Strategy{other, sim.Oracle{}, sim.Sidewinder{}} {
		cal.add(&b, s, w.Audio, apps.MusicJournal())
	}
	for _, j := range b.jobs {
		if j.done != nil {
			t.Fatalf("%s reused a calibration cell", j.s.Name())
		}
	}

	// And the table itself carries the reused cells' mean.
	res, err := Table2(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.AudioApps() {
		var fresh []*sim.Result
		for _, tr := range w.Audio {
			r, err := (sim.PredefinedActivity{Kind: sim.SignificantSound, Threshold: res.PAThreshold}).Run(tr, app)
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, r)
		}
		if got, want := res.PowerMW["Predefined Activity"][app.Name], meanPower(fresh); got != want {
			t.Errorf("Table 2 PA %s: %.17g mW, fresh runs %.17g mW", app.Name, got, want)
		}
	}
}

// streamedFires is the predefined-activity hub as it streamed before
// grading, kept as the oracle: the samples whose window's standard
// deviation (motion) or variance (sound) is at or above threshold.
func streamedFires(t *testing.T, kind sim.PAKind, tr *sensor.Trace, threshold float64) []int {
	t.Helper()
	var values []float64
	win := 1024
	if kind == sim.SignificantMotion {
		x, y, z := tr.Channels[core.AccelX], tr.Channels[core.AccelY], tr.Channels[core.AccelZ]
		values = make([]float64, len(x))
		for i := range values {
			values[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
		}
		win = int(0.5 * tr.RateHz)
	} else {
		values = tr.Channels[core.Mic]
	}
	if len(values) != tr.Len() {
		t.Fatalf("%s: %d feature samples, trace has %d", tr.Name, len(values), tr.Len())
	}
	var fires []int
	var sum, sumSq float64
	for i, v := range values {
		sum += v
		sumSq += v * v
		if i >= win {
			old := values[i-win]
			sum -= old
			sumSq -= old * old
		}
		n := float64(min(i+1, win))
		if int(n) < win {
			continue
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		feature := variance
		if kind == sim.SignificantMotion {
			feature = math.Sqrt(variance)
		}
		if feature >= threshold {
			fires = append(fires, i)
		}
	}
	return fires
}

// TestPAGradesMatchStreamedSignificance checks the graded traces a
// calibration scans against the streamed detector: on a robot, a human
// and an audio trace, the fire list read from the level runs at every step
// of the motion or sound grid, whole and in chunks, is exactly the
// streamed fire list at that step's threshold.
func TestPAGradesMatchStreamedSignificance(t *testing.T) {
	w := workload(t)
	cases := []struct {
		kind sim.PAKind
		tr   *sensor.Trace
		grid []float64
	}{
		{sim.SignificantMotion, w.RobotRuns[0], motionGrid},
		{sim.SignificantMotion, w.Human[0], motionGrid},
		{sim.SignificantSound, w.Audio[0], soundGrid},
	}
	for _, c := range cases {
		g, err := sim.GradePA(c.kind, c.tr, c.grid)
		if err != nil {
			t.Fatal(err)
		}
		n := c.tr.Len()
		distinct := map[int]bool{}
		for step, threshold := range c.grid {
			want := streamedFires(t, c.kind, c.tr, threshold)
			distinct[len(want)] = true
			if got := g.AppendFires(nil, step, 0, n); !slices.Equal(got, want) {
				t.Fatalf("%s step %d (%g): %d graded fires, %d streamed", c.tr.Name, step, threshold, len(got), len(want))
			}
			for _, chunk := range []int{1024, 777} {
				var got []int
				for base := 0; base < n; base += chunk {
					got = g.AppendFires(got, step, base, min(base+chunk, n))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s step %d in chunks of %d: %d graded fires, %d streamed", c.tr.Name, step, chunk, len(got), len(want))
				}
			}
		}
		if len(distinct) < 3 {
			t.Fatalf("%s: the grid yields only %d distinct fire counts; the test is vacuous", c.tr.Name, len(distinct))
		}
	}
}
