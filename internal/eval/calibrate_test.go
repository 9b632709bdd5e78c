package eval

import (
	"reflect"
	"testing"

	"sidewinder/internal/apps"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// plainScan is the calibration scan without fan-out, reordering or early
// stop: every step checks the pairs in order against freshly run
// Always-Awake ceilings.
func plainScan(t *testing.T, kind sim.PAKind, traces []*sensor.Trace, appList []*apps.App, truths map[string][]sensor.Event) float64 {
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
		all := true
		for i, p := range pairs {
			res, err := (sim.PredefinedActivity{Kind: kind, Threshold: grid[g]}).Run(p.tr, p.app)
			if err != nil {
				t.Fatal(err)
			}
			if truth, ok := truths[truthKey(p.tr, p.app)]; ok {
				res.RescoreAgainst(truth, int(p.app.MatchTolSec*p.tr.RateHz))
			}
			if res.Recall < ceilings[i]-1e-9 {
				all = false
				break
			}
		}
		if all {
			return grid[g]
		}
	}
	t.Fatal("plain scan found no threshold")
	return 0
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

// TestCalibrationScanMatchesPlainScan checks that checking the binding
// pair first, fanning out and stopping early change nothing: the scan
// lands on the plain descending scan's threshold for both detector kinds
// and for Figure 7's pseudo-truth path, serially and in parallel.
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
		want := plainScan(t, c.kind, c.traces, c.appList, c.truths)
		for _, workers := range []int{1, 2} {
			cal, err := calibratePA(workers, c.kind, c.traces, c.appList, c.truths, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cal.pa.Threshold != want {
				t.Errorf("%s, %d workers: threshold %.17g, plain scan %.17g", c.name, workers, cal.pa.Threshold, want)
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
