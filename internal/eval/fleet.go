package eval

import (
	"fmt"
	"sort"

	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
)

// FleetCapacityResult reports the multi-tenant capacity sweep: a
// population of phones per app-mix size, each placed by the admission
// controller, with admission/degradation rates and the population's
// power distribution.
type FleetCapacityResult struct {
	Table *Table
	// Runs holds the raw population per apps-per-device sweep point.
	Runs map[int]*sim.FleetResult
}

// fleetAppMixes are the swept per-phone app counts M. One app per phone
// always fits; by six the audio phones that drew all three distinct
// audio conditions overflow the LM4F120's RAM and degrade.
var fleetAppMixes = []int{1, 2, 4, 6}

// fleetPopulation is the number of phones N per sweep point.
const fleetPopulation = 16

// FleetCapacity sweeps the app-mix size over a seeded phone population.
// Each phone draws a modality, M apps (with repetition) and a trace from
// the workload catalog, places the mix with the hub capacity model
// (sched.Place), and replays the admitted set on a merged interpreter while
// degraded conditions are billed as phone-side duty-cycled fallback.
// The cells of every mix fan out together over the worker pool (one
// sim.FleetSweep call); populations and tables are byte-identical at any
// worker count.
func FleetCapacity(o Options, w *Workload) (*FleetCapacityResult, error) {
	o = o.withDefaults()
	accel := make([]*sensor.Trace, 0, len(w.RobotRuns)+len(w.Human))
	accel = append(accel, w.RobotRuns...)
	accel = append(accel, w.Human...)

	out := &FleetCapacityResult{Runs: make(map[int]*sim.FleetResult)}
	table := &Table{
		Title: "Fleet capacity: admission and degradation vs per-phone app count",
		Header: []string{"Apps/phone", "Phones", "Conditions", "Admitted", "Degraded",
			"Hub split", "Shared nodes", "Power mW (mean/p50/p90)"},
		Note: fmt.Sprintf("%d phones per row; each draws a modality, its app mix (with repetition) and a trace "+
			"from the catalog, then the capacity scheduler places the mix on the cheapest admitting device. "+
			"Degraded conditions run as duty-cycled phone fallback; shared nodes count pipeline stages "+
			"deduplicated by cross-app sharing.", fleetPopulation),
	}

	// Every mix runs in one fan-out, so cells of different mixes that
	// replay the same admitted set over the same trace share that replay.
	cfgs := make([]sim.FleetRunConfig, len(fleetAppMixes))
	for mi, m := range fleetAppMixes {
		cfgs[mi] = sim.FleetRunConfig{
			Devices:       fleetPopulation,
			AppsPerDevice: m,
			Seed:          o.Seed + int64(mi)*0x5EED,
			Workers:       w.Workers,
			Accel:         accel,
			Audio:         w.Audio,
			Telemetry:     w.Telemetry,
			Precision:     w.Precision,
			DisableCSE:    w.DisableCSE,
		}
	}
	runs, err := sim.FleetSweep(cfgs)
	if err != nil {
		return nil, err
	}
	for mi, m := range fleetAppMixes {
		res := runs[mi]
		out.Runs[m] = res

		split := make(map[string]int)
		shared := 0
		for _, c := range res.Cells {
			split[c.Device]++
			shared += c.SharedNodes
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", len(res.Cells)),
			fmt.Sprintf("%d", res.Conditions),
			fmt.Sprintf("%d (%.0f%%)", res.Admitted, res.AdmissionRate()*100),
			fmt.Sprintf("%d (%.0f%%)", res.Degraded, res.DegradationRate()*100),
			renderSplit(split),
			fmt.Sprintf("%d", shared),
			fmt.Sprintf("%.1f/%.1f/%.1f", res.MeanMW, res.P50MW, res.P90MW),
		})
	}
	out.Table = table
	return out, nil
}

// renderSplit formats a device histogram ("12×MSP430 4×LM4F120") in
// sorted device-name order.
func renderSplit(split map[string]int) string {
	names := make([]string, 0, len(split))
	for name := range split {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for i, name := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d×%s", split[name], name)
	}
	return s
}
