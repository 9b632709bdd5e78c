// Command sidewinder-eval regenerates the paper's evaluation: every table
// and figure of "Sidewinder: An Energy Efficient and Developer Friendly
// Heterogeneous Architecture for Continuous Mobile Sensing" (ASPLOS 2016).
//
// Usage:
//
//	sidewinder-eval [-experiment table1|table2|fig5|fig6|fig7|savings|battery|ablations|link|crash|fleet|adaptive|all]
//	                [-seed N] [-robot-min M] [-audio-min M] [-human-min M]
//	                [-workers N] [-speedup] [-cpuprofile FILE]
//	                [-metrics FILE] [-trace FILE] [-precision float64|q15]
//	                [-cse=false]
//
// Traces are synthesized deterministically from the seed, and simulation
// cells fan out over a worker pool that collects results in submission
// order, so two runs with the same flags print identical tables at any
// worker count.
//
// -metrics writes the run's telemetry counters and energy ledger to FILE
// (JSON when FILE ends in .json, aligned text otherwise). -trace writes a
// Chrome trace_event JSON file loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Both are strictly opt-in: without the flags no
// telemetry is attached and the tables are byte-identical to older builds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"sidewinder/internal/eval"
	"sidewinder/internal/interp"
	"sidewinder/internal/parallel"
	"sidewinder/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: "+strings.Join(experimentNames, ", "))
	seed := flag.Int64("seed", 1, "generator seed (same seed, same tables)")
	robotMin := flag.Int("robot-min", 30, "duration of each robot run in minutes")
	audioMin := flag.Int("audio-min", 30, "duration of each audio trace in minutes")
	humanMin := flag.Int("human-min", 120, "duration of each human trace in minutes")
	workers := flag.Int("workers", 0, "simulation workers (0 = one per CPU); any count prints identical tables")
	speedup := flag.Bool("speedup", false, "repeat the run with -workers=1 and report the parallel speedup")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	metricsFile := flag.String("metrics", "", "write telemetry metrics and energy ledger to this file (.json for JSON)")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON trace to this file (open in Perfetto)")
	precision := flag.String("precision", "float64",
		"hub interpreter numeric substrate: float64 or q15 (saturating fixed-point)")
	cse := flag.Bool("cse", true,
		"share structurally identical pipeline subgraphs across resident apps (fleet experiment); -cse=false is the ablation")
	flag.Parse()

	prec, err := interp.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sidewinder-eval:", err)
		os.Exit(1)
	}

	opts := eval.Options{
		Seed:             *seed,
		RobotRunDuration: time.Duration(*robotMin) * time.Minute,
		AudioDuration:    time.Duration(*audioMin) * time.Minute,
		HumanDuration:    time.Duration(*humanMin) * time.Minute,
		Workers:          *workers,
		Telemetry:        telemetry.NewSet(*metricsFile, *traceFile),
		Precision:        prec,
		DisableCSE:       !*cse,
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sidewinder-eval:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sidewinder-eval:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	if err := run(os.Stdout, os.Stderr, *experiment, opts); err != nil {
		fmt.Fprintln(os.Stderr, "sidewinder-eval:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	effective := opts.Workers
	if effective <= 0 {
		effective = parallel.DefaultWorkers()
	}
	fmt.Fprintf(os.Stderr, "completed %s with %d workers in %v\n",
		*experiment, effective, elapsed.Round(time.Millisecond))

	if err := opts.Telemetry.WriteFiles(*metricsFile, *traceFile); err != nil {
		fmt.Fprintln(os.Stderr, "sidewinder-eval:", err)
		os.Exit(1)
	}

	if *speedup {
		serialOpts := opts
		serialOpts.Workers = 1
		// The serial rerun is a timing baseline only: attaching the same
		// sinks again would double every counter and ledger entry.
		serialOpts.Telemetry = telemetry.Set{}
		serialStart := time.Now()
		if err := run(io.Discard, io.Discard, *experiment, serialOpts); err != nil {
			fmt.Fprintln(os.Stderr, "sidewinder-eval: serial rerun:", err)
			os.Exit(1)
		}
		serial := time.Since(serialStart)
		fmt.Fprintf(os.Stderr, "serial baseline (1 worker): %v; speedup %.2fx\n",
			serial.Round(time.Millisecond), serial.Seconds()/elapsed.Seconds())
	}
}

// experimentNames are the valid -experiment values, in presentation order.
// "crash" and "fleet" are not part of "all": the paper's tables assume an
// immortal single-tenant hub, and keeping the failure and capacity sweeps
// opt-in keeps "all" output stable for existing consumers.
var experimentNames = []string{
	"table1", "table2", "fig5", "fig6", "fig7",
	"savings", "battery", "ablations", "link", "crash", "fleet", "adaptive", "all",
}

func validExperiment(name string) bool {
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}

// run executes one experiment, writing tables to out and progress notes to
// progress. Unknown experiment names fail before any workload is
// generated.
func run(out, progress io.Writer, experiment string, opts eval.Options) error {
	if !validExperiment(experiment) {
		return fmt.Errorf("unknown experiment %q (valid: %s)",
			experiment, strings.Join(experimentNames, ", "))
	}
	needWorkload := experiment != "table1"
	var w *eval.Workload
	if needWorkload {
		start := time.Now()
		fmt.Fprintf(progress, "generating workload (seed %d)...\n", opts.Seed)
		var err error
		if w, err = eval.GenerateWorkload(opts); err != nil {
			return err
		}
		fmt.Fprintf(progress, "workload ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return experiment == "all" || experiment == name }

	if want("table1") {
		fmt.Fprintln(out, eval.Table1().Render())
	}
	if want("table2") {
		res, err := eval.Table2(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Table.Render())
		fmt.Fprintf(out, "(calibrated significant-sound threshold: %.4g; devices: %v)\n\n",
			res.PAThreshold, res.Devices)
	}
	if want("fig5") {
		res, err := eval.Figure5(opts, w)
		if err != nil {
			return err
		}
		for _, tb := range res.Tables {
			fmt.Fprintln(out, tb.Render())
		}
		fmt.Fprintf(out, "(calibrated significant-motion threshold: %.4g)\n", res.PAThreshold)
		fmt.Fprintf(out, "(average main-CPU classifier precision: steps %.0f%%, transitions %.0f%%, headbutts %.0f%%)\n\n",
			res.Precision["steps"]*100, res.Precision["transitions"]*100, res.Precision["headbutts"]*100)
	}
	if want("fig6") {
		res, err := eval.Figure6(opts, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Table.Render())
	}
	if want("fig7") {
		res, err := eval.Figure7(opts, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Table.Render())
		fmt.Fprint(out, "(Sidewinder's share of available savings:")
		for _, tr := range w.Human {
			fmt.Fprintf(out, " %s %.1f%%", tr.Name, res.SidewinderSavings[tr.Name]*100)
		}
		fmt.Fprint(out, ")\n\n")
	}
	if want("savings") {
		res, err := eval.Savings(opts, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Table.Render())
		fmt.Fprintf(out, "(oracle range across accel scenarios: %.1f-%.1f mW; always-awake 323 mW)\n\n",
			res.OracleMinMW, res.OracleMaxMW)
	}
	if want("battery") {
		res, err := eval.BatteryLife(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Table.Render())
	}
	if want("ablations") {
		ds, err := eval.DeviceSweep(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ds.Table.Render())
		ca, err := eval.ConditionAblation(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ca.Table.Render())
		bl, err := eval.BatchingLatency(opts, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, bl.Table.Render())
		ps, err := eval.PipelineSharing()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ps.Table.Render())
		sr, err := eval.SirenRedesign(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, sr.Table.Render())
		at, err := eval.AdaptiveTuning(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, at.Table.Render())
	}
	if want("link") {
		lr, err := eval.LinkReliability(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, lr.Table.Render())
	}
	// Opt-in only — see experimentNames for why "all" excludes it.
	if experiment == "crash" {
		cr, err := eval.CrashResilience(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, cr.Table.Render())
	}
	// Opt-in only, like "crash".
	if experiment == "fleet" {
		fc, err := eval.FleetCapacity(opts, w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, fc.Table.Render())
	}
	// Opt-in only, like "crash": the closed-loop sweep bills the hub
	// load-proportionally, which the paper's tables do not assume.
	if experiment == "adaptive" {
		ar, err := eval.Adaptive(w)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ar.Table.Render())
	}
	return nil
}
