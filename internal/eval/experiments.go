package eval

import (
	"fmt"
	"sort"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// ---------------------------------------------------------------- Table 1

// Table1 regenerates the Nexus 4 power profile (paper Table 1) by driving
// the power model through each state and reading back the average draw,
// verifying the model reproduces the measured constants.
func Table1() *Table {
	profile := power.Nexus4()

	awake := power.NewPhoneAwake(profile)
	awake.Advance(3600)

	asleep := power.NewPhone(profile)
	asleep.Advance(3600)

	waking := power.NewPhone(profile)
	waking.RequestWake()
	waking.Advance(profile.TransitionSeconds)
	wakingAvg := waking.EnergyMJ() / profile.TransitionSeconds

	sleeping := power.NewPhoneAwake(profile)
	sleeping.RequestSleep()
	sleeping.Advance(profile.TransitionSeconds)
	sleepingAvg := sleeping.EnergyMJ() / profile.TransitionSeconds

	return &Table{
		Title:  "Table 1: Google Nexus 4 power profile (model readback)",
		Header: []string{"State", "Avg power (mW)", "Avg duration"},
		Rows: [][]string{
			{"Awake, running sensor-driven application", fmt.Sprintf("%.1f", awake.AverageMW()), "N/A"},
			{"Asleep", fmt.Sprintf("%.1f", asleep.AverageMW()), "N/A"},
			{"Asleep-to-Awake Transition", fmt.Sprintf("%.1f", wakingAvg), "1 second"},
			{"Awake-to-Asleep Transition", fmt.Sprintf("%.1f", sleepingAvg), "1 second"},
		},
		Note: "Paper: 323 / 9.7 / 384 / 341 mW.",
	}
}

// ---------------------------------------------------------------- Table 2

// Table2Result carries the audio-application power matrix (paper Table 2)
// plus the calibrated significant-sound threshold.
type Table2Result struct {
	Table *Table
	// PowerMW[mechanism][app] in milliwatts.
	PowerMW map[string]map[string]float64
	// Recall[mechanism][app] averaged over the environments.
	Recall map[string]map[string]float64
	// PAThreshold is the calibrated significant-sound threshold.
	PAThreshold float64
	// Devices[app] is the hub device Sidewinder selected.
	Devices map[string]string
}

// Table2 regenerates the average power of the audio applications under
// Oracle, Predefined Activity (calibrated significant sound) and
// Sidewinder, averaged over the three audio environments.
func Table2(w *Workload) (*Table2Result, error) {
	audioApps := apps.AudioApps()
	cal, err := calibratePA(w.Workers, sim.SignificantSound, w.Audio, audioApps, nil, nil)
	if err != nil {
		return nil, err
	}

	mechanisms := []struct {
		name string
		s    sim.Strategy
	}{
		{"Oracle", sim.Oracle{}},
		{"Predefined Activity", cal.pa},
		{"Sidewinder", sim.Sidewinder{}},
	}

	// Fan every (mechanism, app, trace) cell calibration did not already
	// run through the pool, then aggregate in enqueue order.
	var b runBatch
	cells := make([][]cellRange, len(mechanisms))
	for mi, mech := range mechanisms {
		cells[mi] = make([]cellRange, len(audioApps))
		for ai, app := range audioApps {
			cells[mi][ai] = cal.add(&b, mech.s, w.Audio, app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)

	res := &Table2Result{
		PowerMW:     make(map[string]map[string]float64),
		Recall:      make(map[string]map[string]float64),
		PAThreshold: cal.pa.Threshold,
		Devices:     make(map[string]string),
	}
	table := &Table{
		Title:  "Table 2: Average power for the audio applications (mW)",
		Header: []string{"Wake-up Mechanism", "Sirens", "Music", "Phrase"},
		Note:   "Paper: Oracle 16.8/27.2/14.7; Predefined 51.9 (all); Sidewinder 63.1*/32.3/35.6 (* = LM4F120).",
	}
	for mi, mech := range mechanisms {
		res.PowerMW[mech.name] = make(map[string]float64)
		res.Recall[mech.name] = make(map[string]float64)
		row := []string{mech.name}
		for ai, app := range audioApps {
			results, err := cells[mi][ai].results()
			if err != nil {
				return nil, err
			}
			p := meanPower(results)
			res.PowerMW[mech.name][app.Name] = p
			res.Recall[mech.name][app.Name] = meanRecall(results)
			cell := fmt.Sprintf("%.1f", p)
			if mech.name == "Sidewinder" {
				res.Devices[app.Name] = results[0].Device
				if results[0].Device == "LM4F120" {
					cell += "*"
				}
			}
			row = append(row, cell)
		}
		table.Rows = append(table.Rows, row)
	}
	res.Table = table
	return res, nil
}

// ---------------------------------------------------------------- Fig. 5

// Figure5Result carries the robot-trace configuration matrix.
type Figure5Result struct {
	Tables []*Table // one per application
	// Relative[app][group][config] = power / oracle power.
	Relative map[string]map[int]map[string]float64
	// Recall[app][group][config], Precision[app][config] averages.
	Recall      map[string]map[int]map[string]float64
	Precision   map[string]float64
	PAThreshold float64
}

// Figure5 regenerates the power-relative-to-Oracle comparison on the 18
// synthetic robot runs for every configuration of paper §4.2 (Fig. 5).
func Figure5(o Options, w *Workload) (*Figure5Result, error) {
	o = o.withDefaults()
	accelApps := apps.AccelApps()

	cal, err := calibratePA(w.Workers, sim.SignificantMotion, w.RobotRuns, accelApps, nil, nil)
	if err != nil {
		return nil, err
	}

	configs := []struct {
		label string
		s     sim.Strategy
	}{
		{"AA", sim.AlwaysAwake{}},
	}
	for _, sl := range o.SleepIntervals {
		configs = append(configs, struct {
			label string
			s     sim.Strategy
		}{fmt.Sprintf("DC-%.0fs", sl), sim.DutyCycling{SleepSec: sl}})
	}
	configs = append(configs,
		struct {
			label string
			s     sim.Strategy
		}{"Ba-10s", sim.Batching{SleepSec: 10}},
		struct {
			label string
			s     sim.Strategy
		}{"PA", cal.pa},
		struct {
			label string
			s     sim.Strategy
		}{"Sw", sim.Sidewinder{}},
	)

	out := &Figure5Result{
		Relative:    make(map[string]map[int]map[string]float64),
		Recall:      make(map[string]map[int]map[string]float64),
		Precision:   make(map[string]float64),
		PAThreshold: cal.pa.Threshold,
	}

	// Enqueue the full (app, config, group, trace) matrix — plus the
	// per-group Oracle references — then run what calibration did not
	// already run through one pool.
	var b runBatch
	oracleCells := make([][3]cellRange, len(accelApps))
	cfgCells := make([][][3]cellRange, len(accelApps))
	for ai, app := range accelApps {
		for group := 1; group <= 3; group++ {
			oracleCells[ai][group-1] = b.add(sim.Oracle{}, w.RobotGroup(group), app)
		}
		cfgCells[ai] = make([][3]cellRange, len(configs))
		for ci, cfg := range configs {
			for group := 1; group <= 3; group++ {
				cfgCells[ai][ci][group-1] = cal.add(&b, cfg.s, w.RobotGroup(group), app)
			}
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)

	for ai, app := range accelApps {
		out.Relative[app.Name] = make(map[int]map[string]float64)
		out.Recall[app.Name] = make(map[int]map[string]float64)
		table := &Table{
			Title:  fmt.Sprintf("Figure 5 (%s): power relative to Oracle, by activity group", app.Name),
			Header: []string{"Config", "Group 1 (90% idle)", "Group 2 (50% idle)", "Group 3 (10% idle)"},
			Note:   "Cells: power/oracle (recall). All approaches except DC hold 100% recall in the paper.",
		}
		// Oracle reference per group, computed once.
		oraclePower := make(map[int]float64, 3)
		for group := 1; group <= 3; group++ {
			oracleRes, err := oracleCells[ai][group-1].results()
			if err != nil {
				return nil, err
			}
			oraclePower[group] = meanPower(oracleRes)
		}
		var precSum float64
		var precN int
		for ci, cfg := range configs {
			row := []string{cfg.label}
			for group := 1; group <= 3; group++ {
				cfgRes, err := cfgCells[ai][ci][group-1].results()
				if err != nil {
					return nil, err
				}
				oracleP := oraclePower[group]
				rel := meanPower(cfgRes) / oracleP
				rec := meanRecall(cfgRes)
				if out.Relative[app.Name][group] == nil {
					out.Relative[app.Name][group] = make(map[string]float64)
					out.Recall[app.Name][group] = make(map[string]float64)
				}
				out.Relative[app.Name][group][cfg.label] = rel
				out.Recall[app.Name][group][cfg.label] = rec
				precSum += meanPrecision(cfgRes)
				precN++
				row = append(row, fmt.Sprintf("%.2fx (%.0f%%)", rel, rec*100))
			}
			table.Rows = append(table.Rows, row)
		}
		out.Precision[app.Name] = precSum / float64(precN)
		out.Tables = append(out.Tables, table)
	}
	return out, nil
}

// ---------------------------------------------------------------- Fig. 6

// Figure6Result carries duty-cycling recall vs sleep interval.
type Figure6Result struct {
	Table *Table
	// Recall[app][sleepSec].
	Recall map[string]map[float64]float64
}

// Figure6 regenerates duty-cycling recall on the 90%-idle robot runs as
// the sleep interval grows (paper Fig. 6).
func Figure6(o Options, w *Workload) (*Figure6Result, error) {
	o = o.withDefaults()
	runs := w.RobotGroup(1)
	out := &Figure6Result{Recall: make(map[string]map[float64]float64)}
	table := &Table{
		Title:  "Figure 6: Duty-cycling recall on 90%-idle robot runs",
		Header: []string{"Sleep interval"},
		Note:   "Paper: a 10 s interval drops Headbutts and Transitions recall below 30%.",
	}
	accelApps := apps.AccelApps()
	for _, app := range accelApps {
		table.Header = append(table.Header, app.Name)
		out.Recall[app.Name] = make(map[float64]float64)
	}
	var b runBatch
	cells := make([][]cellRange, len(o.SleepIntervals))
	for si, sl := range o.SleepIntervals {
		cells[si] = make([]cellRange, len(accelApps))
		for ai, app := range accelApps {
			cells[si][ai] = b.add(sim.DutyCycling{SleepSec: sl}, runs, app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for si, sl := range o.SleepIntervals {
		row := []string{fmt.Sprintf("%.0f s", sl)}
		for ai, app := range accelApps {
			results, err := cells[si][ai].results()
			if err != nil {
				return nil, err
			}
			rec := meanRecall(results)
			out.Recall[app.Name][sl] = rec
			row = append(row, fmt.Sprintf("%.0f%%", rec*100))
		}
		table.Rows = append(table.Rows, row)
	}
	out.Table = table
	return out, nil
}

// ---------------------------------------------------------------- Fig. 7

// Figure7Result carries the human-trace step-detector comparison.
type Figure7Result struct {
	Table *Table
	// Relative[trace][config] = power / oracle power.
	Relative map[string]map[string]float64
	// Recall[trace][config] measured against Always-Awake detections.
	Recall map[string]map[string]float64
	// SidewinderSavings[trace] = fraction of available savings achieved.
	SidewinderSavings map[string]float64
}

// Figure7 regenerates the human-trace experiment (paper Fig. 7): the step
// detector on three human captures, recall measured against the
// Always-Awake baseline because the traces carry no ground truth (§5.5).
func Figure7(o Options, w *Workload) (*Figure7Result, error) {
	o = o.withDefaults()
	app := apps.Steps()

	// Always-Awake provides the pseudo ground truth. The same runs are
	// calibration's recall ceilings and the table's AA row, so they run
	// once, first.
	stepsOnly := []*apps.App{app}
	aaResults, err := alwaysAwake(w.Workers, calibrationPairs(w.Human, stepsOnly))
	if err != nil {
		return nil, err
	}
	truths := make(map[string][]sensor.Event)
	for _, tr := range w.Human {
		truths[truthKey(tr, app)] = aaResults[truthKey(tr, app)].Detections
	}

	cal, err := calibratePA(w.Workers, sim.SignificantMotion, w.Human, stepsOnly, truths, aaResults)
	if err != nil {
		return nil, err
	}

	configs := []struct {
		label string
		s     sim.Strategy
	}{
		{"AA", sim.AlwaysAwake{}},
		{"DC-10s", sim.DutyCycling{SleepSec: 10}},
		{"Ba-10s", sim.Batching{SleepSec: 10}},
		{"PA", cal.pa},
		{"Sw", sim.Sidewinder{}},
	}

	out := &Figure7Result{
		Relative:          make(map[string]map[string]float64),
		Recall:            make(map[string]map[string]float64),
		SidewinderSavings: make(map[string]float64),
	}
	table := &Table{
		Title:  "Figure 7: Step detector on human traces, power relative to Oracle",
		Header: []string{"Config"},
		Note:   "Recall vs Always-Awake detections (traces are unlabeled, paper §5.5).",
	}
	for _, tr := range w.Human {
		table.Header = append(table.Header, tr.Name)
	}

	// Oracle (on pseudo-truth traces) and every (config, trace) cell run
	// through one pool; rescoring happens in the ordered aggregation pass.
	var b runBatch
	oracleCells := make([]cellRange, len(w.Human))
	for ti, tr := range w.Human {
		pseudo := pseudoTruthTrace(tr, app.Label, truths[truthKey(tr, app)])
		oracleCells[ti] = b.addOne(sim.Oracle{}, pseudo, app)
	}
	cfgCells := make([][]cellRange, len(configs))
	for ci, cfg := range configs {
		cfgCells[ci] = make([]cellRange, len(w.Human))
		for ti, tr := range w.Human {
			cfgCells[ci][ti] = cal.add(&b, cfg.s, []*sensor.Trace{tr}, app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)

	oraclePower := make(map[string]float64)
	for ti, tr := range w.Human {
		res, err := oracleCells[ti].first()
		if err != nil {
			return nil, err
		}
		oraclePower[tr.Name] = res.Power.TotalAvgMW
	}

	for ci, cfg := range configs {
		row := []string{cfg.label}
		for ti, tr := range w.Human {
			res, err := cfgCells[ci][ti].first()
			if err != nil {
				return nil, err
			}
			res.RescoreAgainst(truths[truthKey(tr, app)], int(app.MatchTolSec*tr.RateHz))
			rel := res.Power.TotalAvgMW / oraclePower[tr.Name]
			if out.Relative[tr.Name] == nil {
				out.Relative[tr.Name] = make(map[string]float64)
				out.Recall[tr.Name] = make(map[string]float64)
			}
			out.Relative[tr.Name][cfg.label] = rel
			out.Recall[tr.Name][cfg.label] = res.Recall
			if cfg.label == "Sw" {
				aa := aaResults[truthKey(tr, app)].Power.TotalAvgMW
				out.SidewinderSavings[tr.Name] = (aa - res.Power.TotalAvgMW) / (aa - oraclePower[tr.Name])
			}
			row = append(row, fmt.Sprintf("%.2fx (%.0f%%)", rel, res.Recall*100))
		}
		table.Rows = append(table.Rows, row)
	}
	out.Table = table
	return out, nil
}

// pseudoTruthTrace returns a shallow copy of tr whose events are the given
// pseudo ground truth, so the Oracle strategy can run on unlabeled traces.
func pseudoTruthTrace(tr *sensor.Trace, label string, truth []sensor.Event) *sensor.Trace {
	events := make([]sensor.Event, len(truth))
	for i, e := range truth {
		events[i] = sensor.Event{Label: label, Start: e.Start, End: e.End}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return &sensor.Trace{
		Name:     tr.Name,
		RateHz:   tr.RateHz,
		Channels: tr.Channels,
		Events:   events,
		Meta:     tr.Meta,
	}
}

// ------------------------------------------------------------- §5.1/§5.2

// SavingsResult carries the headline savings numbers of §5.1-5.2.
type SavingsResult struct {
	Table *Table
	// AccelSavings[app][group] = Sidewinder's fraction of available
	// savings ((AA - Sw) / (AA - Oracle), paper footnote 2).
	AccelSavings map[string]map[int]float64
	// AudioSavings[app], same definition on the audio traces.
	AudioSavings map[string]float64
	// OracleMinMW/OracleMaxMW bound the oracle across accel scenarios.
	OracleMinMW, OracleMaxMW float64
}

// Savings regenerates the §5.1 savings-potential numbers and the §5.2
// fraction-of-optimal analysis.
func Savings(o Options, w *Workload) (*SavingsResult, error) {
	o = o.withDefaults()
	out := &SavingsResult{
		AccelSavings: make(map[string]map[int]float64),
		AudioSavings: make(map[string]float64),
		OracleMinMW:  1e18,
	}
	table := &Table{
		Title:  "§5.1-5.2: Sidewinder's share of the available power savings",
		Header: []string{"App", "Scenario", "AA (mW)", "Oracle (mW)", "Sw (mW)", "Savings share"},
		Note:   "Paper: 92.7-95.7% for accelerometer apps, 85-98% for audio apps.",
	}
	const aa = 323.0

	accelApps := apps.AccelApps()
	audioApps := apps.AudioApps()
	var b runBatch
	type savingsCells struct{ oracle, sw cellRange }
	accelCells := make([][3]savingsCells, len(accelApps))
	for ai, app := range accelApps {
		for group := 1; group <= 3; group++ {
			runs := w.RobotGroup(group)
			accelCells[ai][group-1] = savingsCells{
				oracle: b.add(sim.Oracle{}, runs, app),
				sw:     b.add(sim.Sidewinder{}, runs, app),
			}
		}
	}
	audioCells := make([]savingsCells, len(audioApps))
	for ai, app := range audioApps {
		audioCells[ai] = savingsCells{
			oracle: b.add(sim.Oracle{}, w.Audio, app),
			sw:     b.add(sim.Sidewinder{}, w.Audio, app),
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)

	for ai, app := range accelApps {
		out.AccelSavings[app.Name] = make(map[int]float64)
		for group := 1; group <= 3; group++ {
			oracleRes, err := accelCells[ai][group-1].oracle.results()
			if err != nil {
				return nil, err
			}
			swRes, err := accelCells[ai][group-1].sw.results()
			if err != nil {
				return nil, err
			}
			op, sp := meanPower(oracleRes), meanPower(swRes)
			share := (aa - sp) / (aa - op)
			out.AccelSavings[app.Name][group] = share
			if op < out.OracleMinMW {
				out.OracleMinMW = op
			}
			if op > out.OracleMaxMW {
				out.OracleMaxMW = op
			}
			table.Rows = append(table.Rows, []string{
				app.Name, fmt.Sprintf("group %d", group),
				fmt.Sprintf("%.0f", aa), fmt.Sprintf("%.1f", op), fmt.Sprintf("%.1f", sp),
				fmt.Sprintf("%.1f%%", share*100),
			})
		}
	}
	for ai, app := range audioApps {
		oracleRes, err := audioCells[ai].oracle.results()
		if err != nil {
			return nil, err
		}
		swRes, err := audioCells[ai].sw.results()
		if err != nil {
			return nil, err
		}
		op, sp := meanPower(oracleRes), meanPower(swRes)
		share := (aa - sp) / (aa - op)
		out.AudioSavings[app.Name] = share
		table.Rows = append(table.Rows, []string{
			app.Name, "audio (3 envs)",
			fmt.Sprintf("%.0f", aa), fmt.Sprintf("%.1f", op), fmt.Sprintf("%.1f", sp),
			fmt.Sprintf("%.1f%%", share*100),
		})
	}
	out.Table = table
	return out, nil
}

// ------------------------------------------------------------ battery life

// BatteryLifeResult translates average power into the battery life the
// paper's introduction motivates ("resulting in poor battery life and
// ultimately, a slow emergence of continuous sensing applications").
type BatteryLifeResult struct {
	Table *Table
	// Hours[app][config] on the Nexus 4 battery.
	Hours map[string]map[string]float64
}

// BatteryLife estimates Nexus 4 battery life per application for Always
// Awake, Sidewinder and the Oracle on daily-usage-like workloads (group-1
// robot runs: 90% idle; the audio traces for audio apps).
func BatteryLife(w *Workload) (*BatteryLifeResult, error) {
	out := &BatteryLifeResult{Hours: make(map[string]map[string]float64)}
	table := &Table{
		Title:  "Battery life on the Nexus 4 (2100 mAh), daily-usage-like workloads",
		Header: []string{"App", "Always Awake", "Sidewinder", "Oracle"},
		Note:   "Group-1 robot runs (90% idle) for accelerometer apps; the three audio traces for audio apps.",
	}
	configs := []struct {
		label string
		s     sim.Strategy
	}{
		{"Always Awake", sim.AlwaysAwake{}},
		{"Sidewinder", sim.Sidewinder{}},
		{"Oracle", sim.Oracle{}},
	}
	allApps := apps.All()
	var b runBatch
	cells := make([][]cellRange, len(allApps))
	for ai, app := range allApps {
		traces := w.Audio
		if app.Channels[0] != core.Mic {
			traces = w.RobotGroup(1)
		}
		cells[ai] = make([]cellRange, len(configs))
		for ci, cfg := range configs {
			cells[ai][ci] = b.add(cfg.s, traces, app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for ai, app := range allApps {
		out.Hours[app.Name] = make(map[string]float64)
		row := []string{app.Name}
		for ci, cfg := range configs {
			results, err := cells[ai][ci].results()
			if err != nil {
				return nil, err
			}
			hours := power.BatteryLifeHours(meanPower(results), power.Nexus4BatteryMWh)
			out.Hours[app.Name][cfg.label] = hours
			row = append(row, fmt.Sprintf("%.1f h (%.1f d)", hours, hours/24))
		}
		table.Rows = append(table.Rows, row)
	}
	out.Table = table
	return out, nil
}
