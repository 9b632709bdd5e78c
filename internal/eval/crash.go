package eval

import (
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/parallel"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// CrashResilienceResult reports the hub-failure sweep: how many wake-ups
// each configuration catches, transiently misses, or structurally loses
// while the hub crashes, and what supervision costs in energy.
type CrashResilienceResult struct {
	Table *Table
	// Per row label: wake-ups caught (hub window + fallback) as a fraction
	// of the oracle, wake-ups structurally lost, mean detection latency,
	// and average system power.
	Recall       map[string]float64
	LostWakes    map[string]int
	DetectionSec map[string]float64
	AvgMW        map[string]float64
}

// crashMTBFSecs are the swept mean times between hub failures, in
// seconds of trace time. The no-crash baseline is emitted separately.
var crashMTBFSecs = []float64{30, 120}

// crashConfig is one supervision configuration of the sweep.
type crashConfig struct {
	name       string
	supervised bool
	missBudget int
	fallback   sim.FallbackMode
}

// crashConfigs sweeps the detection budget and the fallback mode against
// the unsupervised control. A tight budget detects outages fast but pings
// more; a loose one is quieter but leaves a longer blind window.
var crashConfigs = []crashConfig{
	{name: "unsupervised", supervised: false},
	{name: "supervised budget=2 fallback=always-awake", supervised: true,
		missBudget: 2, fallback: sim.FallbackAlwaysAwake},
	{name: "supervised budget=2 fallback=duty-cycle", supervised: true,
		missBudget: 2, fallback: sim.FallbackDutyCycle},
	{name: "supervised budget=6 fallback=duty-cycle", supervised: true,
		missBudget: 6, fallback: sim.FallbackDutyCycle},
}

// crashSupervisorFor builds the watchdog config for one detection budget:
// pings every 8 ticks, a pong timeout of 8 ticks, and the given number of
// consecutive misses before the hub is declared down.
func crashSupervisorFor(missBudget int) *resilience.SupervisorConfig {
	return &resilience.SupervisorConfig{
		PingIntervalTicks: 8, TimeoutTicks: 8, MissBudget: missBudget,
		ProbeBackoffTicks: 16, MaxProbeBackoffTicks: 128,
	}
}

// CrashResilience sweeps the hub's crash rate against the supervision
// configurations and measures wake-up coverage and energy. The steps
// condition replays over one group-2 robot run; the oracle's wakes are
// partitioned into caught (live hub or fallback sensing), transiently
// missed (outage not yet detected), and structurally lost (the hub came
// back empty and nothing noticed). Supervised rows are required to lose
// nothing structurally; the unsupervised control shows what that is
// worth. Cells fan out across the worker pool and results are read back
// in sweep order, so the table is identical at any worker count.
func CrashResilience(w *Workload) (*CrashResilienceResult, error) {
	tr := w.RobotGroup(2)[0]
	app := apps.Steps()
	rate := tr.RateHz

	type cell struct {
		mtbfSec float64 // 0 = immortal-hub baseline
		cfg     crashConfig
	}
	cells := []cell{{0, crashConfigs[2]}} // baseline: supervised, no crashes
	for _, mtbf := range crashMTBFSecs {
		for _, cfg := range crashConfigs {
			cells = append(cells, cell{mtbf, cfg})
		}
	}

	teles := make([]telemetry.Set, len(cells))
	outcomes, err := parallel.Map(w.Workers, len(cells), func(i int) (*sim.CrashResult, error) {
		c := cells[i]
		teles[i] = w.Telemetry.Cell()
		rc := sim.CrashRunConfig{
			Fallback:  c.cfg.fallback,
			Telemetry: teles[i],
		}
		if c.mtbfSec > 0 {
			rc.Crash = resilience.CrashProfile{
				Seed:          0xC5A5 + int64(i),
				MTBFTicks:     c.mtbfSec * rate,
				MeanDownTicks: 5 * rate,       // 5 s mean outage
				MaxDownTicks:  int(20 * rate), // 20 s cap
			}
		}
		if c.cfg.supervised {
			rc.Supervisor = crashSupervisorFor(c.cfg.missBudget)
		}
		return sim.CrashRun(tr, app, rc)
	})
	if err != nil {
		return nil, err
	}

	out := &CrashResilienceResult{
		Recall:       make(map[string]float64),
		LostWakes:    make(map[string]int),
		DetectionSec: make(map[string]float64),
		AvgMW:        make(map[string]float64),
	}
	table := &Table{
		Title: "Crash resilience: hub failure rate vs supervision (detection budget × fallback)",
		Header: []string{"Hub MTBF", "Configuration", "Crashes", "Detect (s)",
			"Repush frames/B", "Caught", "Missed", "Lost", "Power (mW)"},
		Note: "Steps condition over one robot run; 5 s mean outages. Caught = live hub or phone " +
			"fallback window; Missed = outage not yet detected (bounded by the budget); Lost = hub " +
			"returned empty and nothing noticed — must be 0 under supervision. Power includes " +
			"fallback sensing and re-provisioning traffic.",
	}

	baseMW := outcomes[0].TotalAvgMW
	for i, c := range cells {
		w.Telemetry.Merge(fmt.Sprintf("crash[mtbf=%.0fs,%s]/%s/", c.mtbfSec, c.cfg.name, tr.Name), teles[i])
		r := outcomes[i]
		label := c.cfg.name
		if c.mtbfSec == 0 {
			label = "no crashes (baseline)"
		}
		if c.cfg.supervised && r.StructurallyLostWakes != 0 {
			return nil, fmt.Errorf("eval: supervised cell %q structurally lost %d wakes",
				label, r.StructurallyLostWakes)
		}
		caught := r.HubWindowWakes + r.FallbackWakes
		recall := 1.0
		if r.OracleWakes > 0 {
			recall = float64(caught) / float64(r.OracleWakes)
		}
		key := fmt.Sprintf("mtbf=%.0fs/%s", c.mtbfSec, label)
		out.Recall[key] = recall
		out.LostWakes[key] = r.StructurallyLostWakes
		out.DetectionSec[key] = r.DetectionLatencySec
		out.AvgMW[key] = r.TotalAvgMW

		mtbfCol := "—"
		if c.mtbfSec > 0 {
			mtbfCol = fmt.Sprintf("%.0f s", c.mtbfSec)
		}
		table.Rows = append(table.Rows, []string{
			mtbfCol,
			label,
			fmt.Sprintf("%d", r.Crash.Crashes),
			fmt.Sprintf("%.2f", r.DetectionLatencySec),
			fmt.Sprintf("%d/%d", r.Reprovision.Frames, r.Reprovision.Bytes),
			fmt.Sprintf("%d/%d", caught, r.OracleWakes),
			fmt.Sprintf("%d", r.DetectionWindowWakes),
			fmt.Sprintf("%d", r.StructurallyLostWakes),
			fmt.Sprintf("%.1f (%+.1f)", r.TotalAvgMW, r.TotalAvgMW-baseMW),
		})
	}
	out.Table = table
	return out, nil
}
