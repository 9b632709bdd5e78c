// Package eval implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§4-5): trace generation,
// predefined-activity threshold calibration (§5.3), the configuration
// matrix of §4.2, and text rendering of the resulting tables.
package eval

import (
	"fmt"
	"strings"
	"time"

	"sidewinder/internal/interp"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// Options parameterizes a full evaluation run. Zero values take the
// defaults matching the paper's setup.
type Options struct {
	// Seed drives every generator; a given seed reproduces the entire
	// evaluation bit for bit.
	Seed int64
	// Workers bounds the worker pool that fans out independent
	// (strategy, app, trace) cells and per-trace generation; <= 0 means
	// one worker per CPU. Results are collected in submission order, so
	// every worker count renders byte-identical tables.
	Workers int
	// RobotRunDuration is the length of each of the 18 robot runs
	// (the paper's live runs took ~1 h; simulation defaults to 30 min,
	// which the paper's idle-fraction groups make equivalent in shape).
	RobotRunDuration time.Duration
	// AudioDuration is the length of each audio trace (paper: 30 min).
	AudioDuration time.Duration
	// HumanDuration is the length of each human trace (paper: ~2 h per
	// subject).
	HumanDuration time.Duration
	// SleepIntervals are the duty-cycling/batching sleep intervals in
	// seconds (paper: 2, 5, 10, 20, 30).
	SleepIntervals []float64
	// Precision selects the hub interpreter's numeric substrate for every
	// Sidewinder cell (default float64; q15 models the FPU-less MCU on
	// saturating fixed-point arithmetic).
	Precision interp.Precision
	// DisableCSE is the cross-app sharing ablation for the fleet sweep:
	// the placement bills every condition its standalone demand and the
	// merged interpreter executes duplicated subgraphs separately. The
	// default (false) compiles resident apps into one shared DAG.
	DisableCSE bool
	// Telemetry, when any sink is set, collects every simulation cell of
	// the run: each cell records into sinks of its own, merged into these
	// in cell order after its fan-out, so counters, the ledger's energy
	// and the trace (streams prefixed per cell) are identical at any
	// worker count. The zero Set disables telemetry and leaves the
	// harness byte-identical to an uninstrumented run.
	Telemetry telemetry.Set
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RobotRunDuration == 0 {
		o.RobotRunDuration = 30 * time.Minute
	}
	if o.AudioDuration == 0 {
		o.AudioDuration = 30 * time.Minute
	}
	if o.HumanDuration == 0 {
		o.HumanDuration = 2 * time.Hour
	}
	if len(o.SleepIntervals) == 0 {
		o.SleepIntervals = []float64{2, 5, 10, 20, 30}
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	return b.String()
}

// Workload bundles the generated traces of one evaluation run.
type Workload struct {
	RobotRuns []*sensor.Trace // 18 runs, meta "group" in {1,2,3}
	Audio     []*sensor.Trace // office, coffee shop, outdoors
	Human     []*sensor.Trace // commute, retail, office profiles

	// Workers bounds the parallelism of experiments run over this
	// workload (<= 0: one worker per CPU). Every simulation cell owns its
	// seeded RNG and machine state, and results are consumed in
	// submission order, so changing Workers never changes any table.
	Workers int

	// Telemetry is injected into every Sidewinder cell run over this
	// workload (see Options.Telemetry).
	Telemetry telemetry.Set

	// Precision is injected into every Sidewinder cell run over this
	// workload (see Options.Precision).
	Precision interp.Precision

	// DisableCSE is injected into every fleet cell run over this workload
	// (see Options.DisableCSE).
	DisableCSE bool
}

// GenerateWorkload produces all traces for the options. Each trace derives
// its seed from Options.Seed alone, so the traces are generated through
// the worker pool and are identical for every worker count.
func GenerateWorkload(o Options) (*Workload, error) {
	o = o.withDefaults()
	robotConfigs, robotGroups := tracegen.PaperRobotRunSpecs(o.Seed, o.RobotRunDuration)
	audioEnvs := tracegen.AudioEnvironments()
	humanProfiles := tracegen.HumanProfiles()

	// The audio traces go first: they take most of the generation time,
	// so started last they would be the tail of the fan-out.
	nAudio, nRobot := len(audioEnvs), len(robotConfigs)
	gen := make([]func() (*sensor.Trace, error), 0, nAudio+nRobot+len(humanProfiles))
	for i, env := range audioEnvs {
		cfg := tracegen.NewAudioConfig(o.Seed+int64(i)*101, o.AudioDuration, env)
		gen = append(gen, func() (*sensor.Trace, error) { return tracegen.Audio(cfg) })
	}
	for i := range robotConfigs {
		cfg, group := robotConfigs[i], robotGroups[i]
		gen = append(gen, func() (*sensor.Trace, error) {
			tr, err := tracegen.Robot(cfg)
			if err != nil {
				return nil, err
			}
			tr.Meta["group"] = fmt.Sprintf("%d", group)
			return tr, nil
		})
	}
	for i, prof := range humanProfiles {
		cfg := tracegen.HumanConfig{
			Seed:     o.Seed + int64(i)*211,
			Duration: o.HumanDuration,
			Profile:  prof,
		}
		gen = append(gen, func() (*sensor.Trace, error) { return tracegen.Human(cfg) })
	}

	traces, err := parallel.Map(o.Workers, len(gen), func(i int) (*sensor.Trace, error) {
		return gen[i]()
	})
	if err != nil {
		return nil, err
	}
	return &Workload{
		Audio:      traces[:nAudio],
		RobotRuns:  traces[nAudio : nAudio+nRobot],
		Human:      traces[nAudio+nRobot:],
		Workers:    o.Workers,
		Telemetry:  o.Telemetry,
		Precision:  o.Precision,
		DisableCSE: o.DisableCSE,
	}, nil
}

// RobotGroup returns the runs belonging to one paper group (1, 2 or 3).
func (w *Workload) RobotGroup(group int) []*sensor.Trace {
	var out []*sensor.Trace
	for _, tr := range w.RobotRuns {
		if tr.Meta["group"] == fmt.Sprintf("%d", group) {
			out = append(out, tr)
		}
	}
	return out
}

// meanPower averages total power over a set of results.
func meanPower(results []*sim.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Power.TotalAvgMW
	}
	return sum / float64(len(results))
}

// meanRecall averages recall over a set of results.
func meanRecall(results []*sim.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Recall
	}
	return sum / float64(len(results))
}

// meanPrecision averages precision over a set of results.
func meanPrecision(results []*sim.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Precision
	}
	return sum / float64(len(results))
}
