package eval

import (
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/manager"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/tracegen"
)

// This file implements the beyond-the-headline analyses sketched in the
// paper's discussion sections: device sizing (§3.8), wake-up-condition
// complexity (§3.8 "Identifying processing algorithms"), batching
// timeliness (§5.4) and pipeline sharing across concurrent applications
// (§7 future work).

// ------------------------------------------------------------ device sweep

// DeviceSweepResult reports, per application, the power of running its
// wake-up condition on each microcontroller that can host it.
type DeviceSweepResult struct {
	Table *Table
	// PowerMW[app][device]; absent devices were infeasible.
	PowerMW map[string]map[string]float64
}

// DeviceSweep runs every application's Sidewinder configuration once per
// feasible device, quantifying the sizing trade-off of paper §3.8: a
// larger processor runs everything but idles expensively.
func DeviceSweep(w *Workload) (*DeviceSweepResult, error) {
	out := &DeviceSweepResult{PowerMW: make(map[string]map[string]float64)}
	table := &Table{
		Title:  "Ablation (paper §3.8): hub device sizing",
		Header: []string{"App", "MSP430 (mW)", "LM4F120 (mW)", "Penalty for oversizing"},
		Note:   "Penalty: extra average power from running a condition on the larger part when the small one suffices.",
	}
	allApps := apps.All()
	devices := hub.Devices()
	var b runBatch
	devCells := make([][]cellRange, len(allApps))
	for ai, app := range allApps {
		traces := w.Audio
		if app.Channels[0] != core.Mic {
			traces = w.RobotGroup(2)
		}
		devCells[ai] = make([]cellRange, len(devices))
		for di, dev := range devices {
			devCells[ai][di] = b.add(sim.Sidewinder{Devices: []hub.Device{dev}}, traces, app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for ai, app := range allApps {
		out.PowerMW[app.Name] = make(map[string]float64)
		row := []string{app.Name}
		var cells [2]string
		for di, dev := range devices {
			// An error here is the expected outcome for a condition that
			// does not fit the device (e.g. the FFT chain on the MSP430).
			results, err := devCells[ai][di].results()
			if err != nil {
				cells[di] = "infeasible"
				continue
			}
			p := meanPower(results)
			out.PowerMW[app.Name][dev.Name] = p
			cells[di] = fmt.Sprintf("%.1f", p)
		}
		penalty := "-"
		if small, ok := out.PowerMW[app.Name]["MSP430"]; ok {
			if big, ok := out.PowerMW[app.Name]["LM4F120"]; ok {
				penalty = fmt.Sprintf("+%.1f mW (%.0f%%)", big-small, (big-small)/small*100)
			}
		}
		row = append(row, cells[0], cells[1], penalty)
		table.Rows = append(table.Rows, row)
	}
	out.Table = table
	return out, nil
}

// ------------------------------------------------- condition complexity

// ConditionVariant is one wake-up condition alternative for an app.
type ConditionVariant struct {
	Label string
	Wake  *core.Pipeline
}

// ConditionAblationResult compares wake-up-condition designs for the step
// detector.
type ConditionAblationResult struct {
	Table *Table
	// PowerMW and Recall per variant label.
	PowerMW map[string]float64
	Recall  map[string]float64
	WakeUps map[string]float64
}

// StepsConditionVariants returns three designs for the steps wake-up
// condition at increasing complexity, mirroring the paper's trade-off
// between algorithm complexity and power (§3.8): more selective conditions
// cost more hub cycles but avoid unnecessary main-CPU wake-ups.
func StepsConditionVariants() []ConditionVariant {
	naive := core.NewPipeline("steps-naive")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		naive.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	naive.Add(core.VectorMagnitude())
	naive.Add(core.MinThreshold(9.95)) // any deviation from rest

	noSmooth := core.NewPipeline("steps-nosmooth")
	noSmooth.AddBranch(core.NewBranch(core.AccelX).
		Add(core.Window(25, 12, "rectangular")).
		Add(core.Stat("stddev")).
		Add(core.MinThreshold(0.7)))

	return []ConditionVariant{
		{"significant-motion style", naive},
		{"windowed stddev, no pre-filter", noSmooth},
		{"full (smoothed windowed stddev)", apps.Steps().Wake},
	}
}

// ConditionAblation runs the step detector with each wake-up condition
// variant over the group-2 robot runs.
func ConditionAblation(w *Workload) (*ConditionAblationResult, error) {
	out := &ConditionAblationResult{
		PowerMW: make(map[string]float64),
		Recall:  make(map[string]float64),
		WakeUps: make(map[string]float64),
	}
	table := &Table{
		Title:  "Ablation (paper §3.8): steps wake-up condition complexity",
		Header: []string{"Condition", "Power (mW)", "Recall", "Wake-ups/run", "Hub util"},
		Note:   "Group-2 robot runs. Simpler conditions wake on everything; the full condition sleeps through non-walking motion.",
	}
	runs := w.RobotGroup(2)
	base := apps.Steps()
	variants := StepsConditionVariants()
	var b runBatch
	cells := make([]cellRange, len(variants))
	for vi, variant := range variants {
		app := *base
		app.Wake = variant.Wake
		cells[vi] = b.add(sim.Sidewinder{}, runs, &app)
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for vi, variant := range variants {
		results, err := cells[vi].results()
		if err != nil {
			return nil, err
		}
		var wakes float64
		var util float64
		for _, r := range results {
			wakes += float64(r.Power.WakeUps)
			util = r.HubUtilization
		}
		wakes /= float64(len(results))
		p := meanPower(results)
		rec := meanRecall(results)
		out.PowerMW[variant.Label] = p
		out.Recall[variant.Label] = rec
		out.WakeUps[variant.Label] = wakes
		table.Rows = append(table.Rows, []string{
			variant.Label,
			fmt.Sprintf("%.1f", p),
			fmt.Sprintf("%.0f%%", rec*100),
			fmt.Sprintf("%.1f", wakes),
			fmt.Sprintf("%.3f%%", util*100),
		})
	}
	out.Table = table
	return out, nil
}

// ----------------------------------------------------- batching latency

// BatchingLatencyResult sweeps the batching interval and reports the
// power/timeliness trade-off of paper §5.4.
type BatchingLatencyResult struct {
	Table *Table
	// PowerMW and LatencySec per sleep interval.
	PowerMW    map[float64]float64
	LatencySec map[float64]float64
}

// BatchingLatency runs the transitions app (a timeliness-sensitive event)
// under batching with growing intervals on the group-2 robot runs.
func BatchingLatency(o Options, w *Workload) (*BatchingLatencyResult, error) {
	o = o.withDefaults()
	out := &BatchingLatencyResult{
		PowerMW:    make(map[float64]float64),
		LatencySec: make(map[float64]float64),
	}
	table := &Table{
		Title:  "Ablation (paper §5.4): batching saves power only by sacrificing timeliness",
		Header: []string{"Sleep interval", "Power (mW)", "Mean detection latency", "Recall"},
		Note:   "Transitions app on group-2 robot runs. A gesture app cannot tolerate multi-second delays (paper §5.4).",
	}
	runs := w.RobotGroup(2)
	app := apps.Transitions()
	var b runBatch
	cells := make([]cellRange, len(o.SleepIntervals))
	for si, sl := range o.SleepIntervals {
		cells[si] = b.add(sim.Batching{SleepSec: sl}, runs, app)
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for si, sl := range o.SleepIntervals {
		results, err := cells[si].results()
		if err != nil {
			return nil, err
		}
		var latSum float64
		var latN int
		for _, r := range results {
			if lat, ok := r.MeanDetectionLatencySec(core.AccelRateHz); ok {
				latSum += lat
				latN++
			}
		}
		lat := 0.0
		if latN > 0 {
			lat = latSum / float64(latN)
		}
		p := meanPower(results)
		out.PowerMW[sl] = p
		out.LatencySec[sl] = lat
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f s", sl),
			fmt.Sprintf("%.1f", p),
			fmt.Sprintf("%.1f s", lat),
			fmt.Sprintf("%.0f%%", meanRecall(results)*100),
		})
	}
	out.Table = table
	return out, nil
}

// ----------------------------------------------------- pipeline sharing

// SharingResult quantifies the hub-cycle savings available from merging
// the common prefixes of concurrent wake-up conditions (paper §7: "the
// sensor manager can attempt to improve performance by combining the
// pipelines that use common algorithms").
type SharingResult struct {
	Table *Table
	// SavedFrac is the fraction of combined hub float-ops/s that prefix
	// sharing eliminates for the all-six-apps condition set.
	SavedFrac float64
}

// PipelineSharing statically analyzes the six applications' plans: nodes
// whose (kind, params, inputs) match an already-counted node on the same
// sources are shared.
func PipelineSharing() (*SharingResult, error) {
	cat := core.DefaultCatalog()
	table := &Table{
		Title:  "Analysis (paper §7): hub work saved by merging common pipeline prefixes",
		Header: []string{"Condition set", "Combined Mops/s", "With sharing", "Saved"},
	}
	type nodeKey string
	var appsAll []*apps.App = apps.All()

	var totalCombined, totalShared float64
	addRow := func(label string, plans []*core.Plan) {
		seen := make(map[nodeKey]bool)
		var combined, shared float64
		for _, plan := range plans {
			// Map node IDs to canonical keys bottom-up so identical
			// prefixes in different plans collide.
			keys := make(map[int]nodeKey, len(plan.Nodes))
			for i := range plan.Nodes {
				n := &plan.Nodes[i]
				sig := core.Stage{Kind: n.Kind, Params: n.Params}.String() + "|"
				for _, in := range n.Inputs {
					if in.FromChannel() {
						sig += string(in.Channel) + ","
					} else {
						sig += string(keys[in.Node]) + ","
					}
				}
				key := nodeKey(sig)
				keys[n.ID] = key
				ops := (n.Cost.FloatOps + n.Cost.IntOps) * n.Rate
				combined += ops
				if !seen[key] {
					seen[key] = true
					shared += ops
				}
			}
		}
		totalCombined, totalShared = combined, shared
		saved := 0.0
		if combined > 0 {
			saved = 1 - shared/combined
		}
		table.Rows = append(table.Rows, []string{
			label,
			fmt.Sprintf("%.3f", combined/1e6),
			fmt.Sprintf("%.3f", shared/1e6),
			fmt.Sprintf("%.1f%%", saved*100),
		})
	}

	// The interesting set: music + phrase share their window stages.
	var audioPlans []*core.Plan
	for _, a := range []*apps.App{apps.MusicJournal(), apps.PhraseDetection()} {
		plan, err := a.Wake.Validate(cat)
		if err != nil {
			return nil, err
		}
		audioPlans = append(audioPlans, plan)
	}
	addRow("music + phrase", audioPlans)

	var allPlans []*core.Plan
	for _, a := range appsAll {
		plan, err := a.Wake.Validate(cat)
		if err != nil {
			return nil, err
		}
		allPlans = append(allPlans, plan)
	}
	addRow("all six applications", allPlans)

	saved := 0.0
	if totalCombined > 0 {
		saved = 1 - totalShared/totalCombined
	}
	return &SharingResult{Table: table, SavedFrac: saved}, nil
}

// ----------------------------------------------------- siren redesign

// SirenRedesignResult compares the paper's FFT-based siren wake-up
// condition against a Goertzel-bank redesign that fits the MSP430.
type SirenRedesignResult struct {
	Table *Table
	// PowerMW, Recall and Device per variant label.
	PowerMW map[string]float64
	Recall  map[string]float64
	Device  map[string]string
}

// GoertzelSirenCondition returns a siren wake-up condition built from the
// extended catalog's streaming algorithms: an IIR high-pass plus a bank of
// fixed-point Goertzel detectors scanning the siren band. Unlike the
// paper's FFT chain, it fits the MSP430's real-time budget, answering the
// §3.8 question of whether the platform's algorithm set should include
// cheaper alternatives: with the right catalog, the Table 2 asterisk (and
// its 49.4 mW hub) disappears.
func GoertzelSirenCondition() *core.Pipeline {
	p := core.NewPipeline("sirens-wake-goertzel")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.IIRHighPass(750, core.AudioRateHz)).
		Add(core.GoertzelBank(850, 1800, core.AudioRateHz, 64, 16)).
		Add(core.MinThresholdSustained(0.8, 20))) // >=320 ms of sustained in-band tone
	return p
}

// SirenRedesign runs the siren application with both wake-up conditions
// over the audio traces.
func SirenRedesign(w *Workload) (*SirenRedesignResult, error) {
	out := &SirenRedesignResult{
		PowerMW: make(map[string]float64),
		Recall:  make(map[string]float64),
		Device:  make(map[string]string),
	}
	table := &Table{
		Title:  "Extension (paper §3.8): a Goertzel-bank siren condition removes the Table 2 asterisk",
		Header: []string{"Condition", "Device", "Power (mW)", "Recall"},
		Note:   "The FFT chain needs the LM4F120 (49.4 mW); the fixed-point Goertzel bank fits the MSP430 (3.6 mW).",
	}
	base := apps.Sirens()
	variants := []ConditionVariant{
		{"FFT tonality (paper)", base.Wake},
		{"Goertzel bank (extension)", GoertzelSirenCondition()},
	}
	var b runBatch
	cells := make([]cellRange, len(variants))
	for vi, v := range variants {
		app := *base
		app.Wake = v.Wake
		cells[vi] = b.add(sim.Sidewinder{}, w.Audio, &app)
	}
	b.run(w.Workers, w.Telemetry, w.Precision)
	for vi, v := range variants {
		results, err := cells[vi].results()
		if err != nil {
			return nil, err
		}
		out.PowerMW[v.Label] = meanPower(results)
		out.Recall[v.Label] = meanRecall(results)
		out.Device[v.Label] = results[0].Device
		table.Rows = append(table.Rows, []string{
			v.Label,
			results[0].Device,
			fmt.Sprintf("%.1f", out.PowerMW[v.Label]),
			fmt.Sprintf("%.0f%%", out.Recall[v.Label]*100),
		})
	}
	out.Table = table
	return out, nil
}

// ----------------------------------------------------- adaptive tuning

// AdaptiveTuningResult quantifies the §7 "smartness" loop: an app with a
// deliberately loose wake-up condition reports verdicts after every
// wake-up, and the phone's policy engine tightens the condition's
// threshold toward the false positives' level.
type AdaptiveTuningResult struct {
	Table *Table
	// WakesFirstHalf/WakesSecondHalf per mode ("static", "tuned").
	WakesFirstHalf  map[string]int
	WakesSecondHalf map[string]int
	// Recall per mode measured on the second half (tuning must not cost
	// detectable events).
	Recall map[string]float64
	// FinalFactor is the policy engine's threshold strictness factor at
	// trace end.
	FinalFactor float64
}

// AdaptiveTuning replays a group-2 robot run through the full
// manager/link/hub stack twice — once without feedback and once with the
// application reporting wake-up verdicts — and compares wake-up counts per
// trace half.
func AdaptiveTuning(w *Workload) (*AdaptiveTuningResult, error) {
	tr := w.RobotGroup(2)[0]
	app := apps.Steps()

	// A deliberately loose variant of the steps condition: it fires on
	// transitions and scuffs, not only on walking.
	loose := func() *core.Pipeline {
		p := core.NewPipeline("steps-loose")
		p.AddBranch(core.NewBranch(core.AccelX).
			Add(core.MovingAverage(3)).
			Add(core.Window(25, 12, "rectangular")).
			Add(core.Stat("stddev")).
			Add(core.MinThreshold(0.30)))
		return p
	}

	out := &AdaptiveTuningResult{
		WakesFirstHalf:  make(map[string]int),
		WakesSecondHalf: make(map[string]int),
		Recall:          make(map[string]float64),
	}
	x := tr.Channels[core.AccelX]
	half := len(x) / 2
	truth := tr.EventsLabeled(app.Label)

	// A wake is legitimate when it lands inside (or just after) a walking
	// bout; everything else — scuffs, transitions, noise — is a false
	// positive the feedback loop should learn away.
	walkHorizon := int(2 * tr.RateHz)
	walks := tr.EventsLabeled(tracegen.LabelWalk)
	isLegit := func(sample int) bool {
		for _, wv := range walks {
			if sample >= wv.Start-walkHorizon && sample <= wv.End+walkHorizon {
				return true
			}
		}
		return false
	}

	// The two modes replay the trace through independent testbeds, so
	// they run as two cells of the pool.
	modes := []string{"static", "tuned"}
	type modeOutcome struct {
		firstHalf, secondHalf int
		recall                float64
		finalFactor           float64
	}
	outcomes, err := parallel.Map(w.Workers, len(modes), func(mi int) (modeOutcome, error) {
		mode := modes[mi]
		var mo modeOutcome
		bed, err := manager.NewTestbed(manager.TestbedConfig{})
		if err != nil {
			return mo, err
		}
		var wakeSamples []int
		sampleIdx := 0
		var pendingVerdicts []bool
		id, _, err := bed.Push(loose(), manager.ListenerFunc(func(e manager.Event) {
			wakeSamples = append(wakeSamples, sampleIdx)
			// The application classifies the delivered buffer: a wake-up
			// with no detectable steps in the data is a false positive.
			buf := &sensor.Trace{
				RateHz:   tr.RateHz,
				Channels: map[core.SensorChannel][]float64{core.AccelX: e.Data[core.AccelX]},
			}
			dets := app.Detector.Detect(buf, 0, buf.Len())
			pendingVerdicts = append(pendingVerdicts, len(dets) == 0)
		}))
		if err != nil {
			return mo, err
		}
		for i, v := range x {
			sampleIdx = i
			if err := bed.Feed(core.AccelX, v); err != nil {
				return mo, err
			}
			if mode == "tuned" {
				for _, fp := range pendingVerdicts {
					if err := bed.Feedback(id, fp); err != nil {
						return mo, err
					}
				}
			}
			pendingVerdicts = pendingVerdicts[:0]
		}
		for _, s := range wakeSamples {
			if isLegit(s) {
				continue // count only false-positive wakes
			}
			if s < half {
				mo.firstHalf++
			} else {
				mo.secondHalf++
			}
		}
		// Recall on the second half: an event is caught if a wake lands
		// within its pre-buffer horizon.
		horizon := int(app.PreBufferSec * tr.RateHz)
		caught, total := 0, 0
		for _, e := range truth {
			if e.Start < half {
				continue
			}
			total++
			for _, s := range wakeSamples {
				if s >= e.Start-horizon && s <= e.End+horizon {
					caught++
					break
				}
			}
		}
		mo.recall = 1
		if total > 0 {
			mo.recall = float64(caught) / float64(total)
		}
		if mode == "tuned" {
			// The verdicts ran the condition's threshold-only policy
			// engine; a run with no verdicts never started one.
			mo.finalFactor = 1
			if knobs, ok := bed.Manager.AdaptiveKnobs(id); ok {
				mo.finalFactor = knobs.ThresholdFactor
			}
		}
		return mo, nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		out.WakesFirstHalf[mode] = outcomes[mi].firstHalf
		out.WakesSecondHalf[mode] = outcomes[mi].secondHalf
		out.Recall[mode] = outcomes[mi].recall
		if mode == "tuned" {
			out.FinalFactor = outcomes[mi].finalFactor
		}
	}

	table := &Table{
		Title:  "Extension (paper §7): feedback-driven threshold tuning on a loose steps condition",
		Header: []string{"Mode", "FP wakes (1st half)", "FP wakes (2nd half)", "Step recall (2nd half)"},
		Note:   fmt.Sprintf("One group-2 robot run through the full manager/link/hub stack; final tuning factor %.2f.", out.FinalFactor),
	}
	for _, mode := range []string{"static", "tuned"} {
		table.Rows = append(table.Rows, []string{
			mode,
			fmt.Sprintf("%d", out.WakesFirstHalf[mode]),
			fmt.Sprintf("%d", out.WakesSecondHalf[mode]),
			fmt.Sprintf("%.0f%%", out.Recall[mode]*100),
		})
	}
	out.Table = table
	return out, nil
}
