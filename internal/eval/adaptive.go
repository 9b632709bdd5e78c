package eval

import (
	"fmt"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// AdaptiveResult reports the closed-loop adaptation sweep: for each
// application, the oracle bound, the static Sidewinder control (same
// load-proportional power model, adaptation frozen) and the adaptive arm,
// with the hub-energy savings the policy engine recovered and the
// missed-wake rate it paid for them.
type AdaptiveResult struct {
	Table *Table
	// SavingsPct[app] is the adaptive arm's hub-energy savings over the
	// static control, as a fraction of the static hub energy.
	SavingsPct map[string]float64
	// MissedRate[app] is the adaptive arm's observed missed-wake fraction.
	MissedRate map[string]float64
	// Recall[app] is the adaptive arm's detection recall.
	Recall map[string]float64
}

// adaptiveSweepApps picks the applications and traces the sweep covers:
// the two continuous accelerometer conditions over the group-2 robot runs
// (group 2 has the mid idle fraction, so both wake and idle behavior are
// exercised) and every audio application over the audio environments. The
// audio trio spans the interesting policy regimes: sirens and music earn
// the Q15 rung (the FFT chain keeps the LM4F120, the feature chain idles
// the MSP430), music's decimation rung gets vetoed by re-admission, and
// phrase's false wakes drive the AIMD threshold axis.
func adaptiveSweepApps(w *Workload) []struct {
	app    *apps.App
	traces []*sensor.Trace
} {
	out := []struct {
		app    *apps.App
		traces []*sensor.Trace
	}{
		{apps.Steps(), w.RobotGroup(2)},
		{apps.Transitions(), w.RobotGroup(2)},
	}
	for _, app := range apps.AudioApps() {
		out = append(out, struct {
			app    *apps.App
			traces []*sensor.Trace
		}{app, w.Audio})
	}
	return out
}

// Adaptive runs the feedback-loop experiment (ROADMAP item 1): every
// application replays its traces under Oracle, static Sidewinder and
// adaptive Sidewinder. Both Sidewinder arms bill the hub with the
// load-proportional power model, so the delta is purely what the policy
// engine's re-parameterizations (threshold strictness, Q15 demotion,
// decimation + window stretch) are worth. Cells fan out through the
// worker pool and aggregate in enqueue order; the engine itself is
// driven only by the trace, so the table is byte-identical at any worker
// count (TestRunAdaptiveWorkerInvariance).
func Adaptive(w *Workload) (*AdaptiveResult, error) {
	sweep := adaptiveSweepApps(w)
	// The sweep's policy bounds: default knob ceilings, but a shorter
	// patience/cooldown than adapt.DefaultConfig — the evaluation traces
	// are minutes long, so the engine must earn its rungs on tens of
	// wake-ups, not the hours a deployment would see.
	cfg := adapt.DefaultConfig()
	cfg.Patience = 3
	cfg.Cooldown = 6
	arms := []struct {
		name string
		s    sim.Strategy
	}{
		{"Oracle", sim.Oracle{}},
		{"Static Sidewinder", sim.AdaptiveSidewinder{Config: cfg, Frozen: true}},
		{"Adaptive Sidewinder", sim.AdaptiveSidewinder{Config: cfg}},
	}

	var b runBatch
	cells := make([][]cellRange, len(sweep))
	for si, sw := range sweep {
		cells[si] = make([]cellRange, len(arms))
		for ai, arm := range arms {
			cells[si][ai] = b.add(arm.s, sw.traces, sw.app)
		}
	}
	b.run(w.Workers, w.Telemetry, w.Precision)

	out := &AdaptiveResult{
		SavingsPct: make(map[string]float64),
		MissedRate: make(map[string]float64),
		Recall:     make(map[string]float64),
	}
	table := &Table{
		Title: "Closed-loop adaptation: static vs adaptive Sidewinder (load-proportional hub power)",
		Header: []string{"App", "Arm", "Power (mW)", "Hub (mJ)", "Savings",
			"Recall", "Missed", "Adaptations", "Final knobs"},
		Note: "Savings = hub energy recovered vs the static arm under the identical power model. " +
			"Missed = missed-wake fraction the policy observed (bounded by MissedWakeBound). " +
			"Adaptations = program rebuilds the hub performed; knobs = decimation/window/threshold/precision.",
	}

	for si, sw := range sweep {
		for ai, arm := range arms {
			results, err := cells[si][ai].results()
			if err != nil {
				return nil, err
			}
			power := meanPower(results)
			recall := meanRecall(results)
			row := []string{sw.app.Name, arm.name, fmt.Sprintf("%.1f", power)}
			if ai == 0 { // Oracle: no hub, no policy
				row = append(row, "—", "—", fmt.Sprintf("%.2f", recall), "—", "—", "—")
				table.Rows = append(table.Rows, row)
				continue
			}
			var staticMJ, adaptedMJ, missed, observed float64
			var adoptions, changes int
			var final string
			for _, r := range results {
				if r.Adapt == nil {
					return nil, fmt.Errorf("eval: %s cell missing adaptation stats", arm.name)
				}
				staticMJ += r.Adapt.StaticMJ
				adaptedMJ += r.Adapt.AdaptedMJ
				missed += float64(r.Adapt.MissedWakes)
				observed += float64(r.Adapt.MissedWakes + r.Adapt.TrueWakes)
				adoptions += r.Adapt.Adoptions
				changes += r.Adapt.Changes
				k := r.Adapt.FinalKnobs
				final = fmt.Sprintf("d=%d w=%.1f t=%.2f %s", k.Decimation, k.WindowScale,
					k.ThresholdFactor, k.Precision)
			}
			savings := 0.0
			if staticMJ > 0 {
				savings = (staticMJ - adaptedMJ) / staticMJ
			}
			missedRate := 0.0
			if observed > 0 {
				missedRate = missed / observed
			}
			if ai == 2 {
				out.SavingsPct[sw.app.Name] = savings
				out.MissedRate[sw.app.Name] = missedRate
				out.Recall[sw.app.Name] = recall
			}
			row = append(row,
				fmt.Sprintf("%.0f", adaptedMJ),
				fmt.Sprintf("%.1f%%", savings*100),
				fmt.Sprintf("%.2f", recall),
				fmt.Sprintf("%.3f", missedRate),
				fmt.Sprintf("%d", adoptions),
				final)
			table.Rows = append(table.Rows, row)
		}
	}
	out.Table = table
	return out, nil
}
