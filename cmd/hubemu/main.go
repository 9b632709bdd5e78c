// Command hubemu runs the sensor-hub runtime standalone: it loads an
// intermediate-language program (paper §3.3), binds it against the
// platform catalog, replays a trace file through the interpreter and
// reports every wake-up plus cycle-budget statistics. It is the software
// equivalent of flashing the paper's MSP430/LM4F120 firmware and feeding
// it recorded sensor data.
//
// Usage:
//
//	hubemu -ir condition.ir -trace run.swtr [-device MSP430|LM4F120] [-v]
//	       [-metrics FILE] [-traceout FILE] [-crash-profile SPEC]
//
// -crash-profile injects hub failures during the replay, the firmware
// analogue of yanking the MCU's power mid-run. SPEC is comma-separated
// key=value pairs: mtbf=TICKS (mean ticks between crashes, required),
// down=TICKS (mean outage length), max=TICKS (outage cap), seed=N, and
// kind=reset|hang|brownout to force one failure kind (default: equal
// mix). Ticks are trace samples. While down the hub drops its input;
// a state-losing crash (reset/brownout) additionally wipes the
// interpreter, so buffered window state is lost across the reboot.
//
// -metrics writes replay telemetry (wake counters, per-stage interpreter
// work, the device's energy ledger) to FILE — JSON when FILE ends in
// .json, aligned text otherwise. -traceout writes a Chrome trace_event
// JSON execution trace (wake instants plus per-stage spans) loadable in
// Perfetto; it is named -traceout because -trace already names the input
// sensor trace. Both are opt-in and leave the replay output unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sidewinder/internal/core"
	"sidewinder/internal/fleetd"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

func main() {
	irPath := flag.String("ir", "", "intermediate-language program file (required)")
	tracePath := flag.String("trace", "", "trace file, binary or .json (required)")
	deviceName := flag.String("device", "", "force a device (MSP430 or LM4F120); default: auto-select")
	verbose := flag.Bool("v", false, "print every wake event and the per-stage static demand breakdown")
	metricsFile := flag.String("metrics", "", "write wake counters and the energy ledger to this file (.json for JSON)")
	traceOutFile := flag.String("traceout", "", "write a Chrome trace_event JSON trace to this file (open in Perfetto)")
	crashSpec := flag.String("crash-profile", "",
		`inject hub crashes: "mtbf=3000,down=250,seed=1[,max=N][,kind=reset|hang|brownout]" (ticks = samples)`)
	precision := flag.String("precision", "float64",
		"interpreter numeric substrate: float64 or q15 (saturating fixed-point)")
	flag.Parse()

	// SIGINT/SIGTERM request a graceful stop: the replay breaks within
	// the next 4096 samples, then flushes -metrics/-traceout like a
	// completed run instead of dying mid-frame. A second signal hard-exits.
	d := fleetd.WatchSignals()
	defer d.Stop()
	if err := run(os.Stdout, *irPath, *tracePath, *deviceName, *verbose, *metricsFile, *traceOutFile, *crashSpec, *precision, d); err != nil {
		fmt.Fprintln(os.Stderr, "hubemu:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, irPath, tracePath, deviceName string, verbose bool, metricsFile, traceOutFile, crashSpec, precision string, d *fleetd.Drainer) error {
	if irPath == "" || tracePath == "" {
		return fmt.Errorf("-ir and -trace are required")
	}
	crashProfile, err := parseCrashProfile(crashSpec)
	if err != nil {
		return err
	}
	prec, err := interp.ParsePrecision(precision)
	if err != nil {
		return err
	}
	irText, err := os.ReadFile(irPath)
	if err != nil {
		return err
	}
	plan, err := ir.ParseAndBind(string(irText), core.DefaultCatalog())
	if err != nil {
		return err
	}

	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *sensor.Trace
	if strings.HasSuffix(tracePath, ".json") {
		tr, err = sensor.ReadJSON(f)
	} else {
		tr, err = sensor.ReadBinary(f)
	}
	if err != nil {
		return err
	}

	dev, err := pickDevice(deviceName, plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "condition %q: %d nodes on %s (%.2f%% cycle budget)\n",
		plan.Name, len(plan.Nodes), dev.Name, dev.Utilization(plan)/dev.MaxUtilization*100)
	if verbose {
		printStaticDemand(out, plan, dev)
	}

	machine, err := interp.NewPrecision(plan, prec)
	if err != nil {
		return err
	}
	if prec != interp.Float64 {
		fmt.Fprintf(out, "precision: %s\n", prec)
	}

	// Opt-in telemetry: counters + ledger behind -metrics, execution trace
	// behind -traceout. All handles are nil-safe, so the replay loop below
	// is identical with and without them.
	set := telemetry.NewSet(metricsFile, traceOutFile)
	var (
		clk     *telemetry.Clock
		stream  *telemetry.Stream
		profile *telemetry.InterpProfile
		cWakes  *telemetry.Counter
	)
	if set.Enabled() {
		clk = &telemetry.Clock{}
		stream = set.Tracer.Stream("hub", clk)
		profile = telemetry.NewInterpProfile()
		machine.SetProfile(profile)
		cWakes = set.Metrics.Counter("hubemu.wakes")
	}

	channels := plan.Channels
	data := make([][]float64, len(channels))
	for i, ch := range channels {
		var ok bool
		if data[i], ok = tr.Channels[ch]; !ok {
			return fmt.Errorf("trace %q lacks channel %s required by the condition", tr.Name, ch)
		}
	}

	inj, err := resilience.NewCrashInjector(crashProfile)
	if err != nil {
		return err
	}

	// The one replay loop. The crash injector ticks once per sample (a nil
	// injector never goes down). Each run of samples where the hub is up
	// goes through the interpreter's Run, which pushes it one channel
	// after another and reports each wake at its trace sample. A crash
	// onset or a down sample closes the run, and a run is capped at maxRun
	// samples, so the drain request, checked as each run opens, is seen at
	// least that often.
	const maxRun = 4096
	wakes, samplesLost, stateWipes := 0, 0, 0
	n := tr.Len()
	start := 0 // first sample of the open run
	wake := func(sample int, w interp.TaggedWake) {
		sec := float64(sample) / tr.RateHz
		wakes++
		cWakes.Inc()
		clk.SetSec(sec)
		stream.Instant2("wake.sent", "hub", "node", float64(w.NodeID), "value", w.Value)
		if verbose {
			at := time.Duration(sec * float64(time.Second))
			fmt.Fprintf(out, "wake #%d at %v (sample %d): node %d emitted %.4g\n",
				wakes, at.Round(time.Millisecond), sample, w.NodeID, w.Value)
		}
	}
	push := func(end int) {
		machine.Run(channels, data, start, end, wake)
		start = end
	}
	i := 0 // samples replayed; fewer than n if interrupted
	for ; i < n; i++ {
		if i-start == maxRun {
			push(i)
		}
		if i == start && d.Requested() {
			fmt.Fprintf(out, "interrupted at sample %d of %d: flushing telemetry\n", i, n)
			break
		}
		ct := inj.Tick()
		if !inj.Down() {
			continue
		}
		push(i)
		if ct.Onset && ct.Kind.LosesState() {
			// A reset or brownout reboots the MCU: the interpreter's
			// buffered window state does not survive. The work meter does —
			// cycles already spent were really spent.
			machine.Reset()
			stateWipes++
			if verbose {
				fmt.Fprintf(out, "crash (%s) at sample %d: interpreter state wiped\n", ct.Kind, i)
			}
		} else if verbose && ct.Onset {
			fmt.Fprintf(out, "crash (%s) at sample %d\n", ct.Kind, i)
		}
		samplesLost += len(channels)
		start = i + 1
	}
	push(i)

	work := machine.Work()
	cycles := dev.Cycles(work.FloatOps, work.IntOps)
	seconds := float64(i) / tr.RateHz
	wakesPerMin, budgetPct := 0.0, 0.0
	if seconds > 0 {
		wakesPerMin = float64(wakes) / (seconds / 60)
		budgetPct = cycles / seconds / dev.CycleBudget() * 100
	}
	replayed := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(out, "replayed %s: %d samples/channel over %v\n", tr.Name, i, replayed.Round(time.Second))
	fmt.Fprintf(out, "wake-ups: %d (%.2f per minute)\n", wakes, wakesPerMin)
	fmt.Fprintf(out, "interpreter work: %.0f float ops, %.0f int ops (%.2f%% of %s cycle budget)\n",
		work.FloatOps, work.IntOps, budgetPct, dev.Name)
	if crashProfile.Enabled() {
		st := inj.Stats()
		fmt.Fprintf(out, "crashes: %d (%d reset, %d hang, %d brownout); down %d of %d samples; %d samples dropped; %d state wipes\n",
			st.Crashes, st.Resets, st.Hangs, st.Brownouts, st.DownTicks, i, samplesLost, stateWipes)
	}

	if !set.Enabled() {
		return nil
	}
	profile.DepositHub(set.Ledger, dev.ActivePowerMW, seconds, dev.Cycles)
	profile.EmitStageSpans(stream, dev.Cycles, dev.ClockHz)
	return set.WriteFiles(metricsFile, traceOutFile)
}

// printStaticDemand writes the condition's per-stage static demand — the
// numbers the capacity scheduler admits against — as cycles on the chosen
// device and resident window memory.
func printStaticDemand(w io.Writer, plan *core.Plan, dev hub.Device) {
	fmt.Fprintln(w, "static demand by stage (admission-controller view):")
	var totalCycles float64
	var totalMem int
	for _, kd := range ir.DemandByKind(ir.CompileOptions{}, plan) {
		cycles := dev.Cycles(kd.FloatOpsPerSec, kd.IntOpsPerSec)
		totalCycles += cycles
		totalMem += kd.MemoryBytes
		fmt.Fprintf(w, "  %-16s x%d  %10.0f cycles/s  %6d B\n", kd.Kind, kd.Nodes, cycles, kd.MemoryBytes)
	}
	fmt.Fprintf(w, "  %-16s     %10.0f cycles/s  %6d B  (budget %.0f cycles/s, %d B)\n",
		"total", totalCycles, totalMem, dev.CycleBudget(), dev.RAMBytes)
}

// parseCrashProfile parses the -crash-profile spec: comma-separated
// key=value pairs with keys mtbf, down, max, seed and kind. An empty spec
// yields a disabled profile (and a nil, no-op injector).
func parseCrashProfile(spec string) (resilience.CrashProfile, error) {
	var p resilience.CrashProfile
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("-crash-profile: %q is not key=value", field)
		}
		var err error
		switch key {
		case "mtbf":
			_, err = fmt.Sscanf(val, "%g", &p.MTBFTicks)
		case "down":
			_, err = fmt.Sscanf(val, "%g", &p.MeanDownTicks)
		case "max":
			_, err = fmt.Sscanf(val, "%d", &p.MaxDownTicks)
		case "seed":
			_, err = fmt.Sscanf(val, "%d", &p.Seed)
		case "kind":
			switch val {
			case "reset":
				p.ResetWeight = 1
			case "hang":
				p.HangWeight = 1
			case "brownout":
				p.BrownoutWeight = 1
			default:
				return p, fmt.Errorf("-crash-profile: unknown kind %q (reset, hang or brownout)", val)
			}
		default:
			return p, fmt.Errorf("-crash-profile: unknown key %q (mtbf, down, max, seed, kind)", key)
		}
		if err != nil {
			return p, fmt.Errorf("-crash-profile: bad value for %s: %q", key, val)
		}
	}
	if !p.Enabled() {
		return p, fmt.Errorf("-crash-profile: mtbf must be set and positive")
	}
	return p, p.Validate()
}

func pickDevice(name string, plan *core.Plan) (hub.Device, error) {
	if name == "" {
		return hub.SelectDevice(hub.Devices(), plan)
	}
	for _, d := range hub.Devices() {
		if strings.EqualFold(d.Name, name) {
			if err := d.CheckFeasible(plan); err != nil {
				return hub.Device{}, err
			}
			return d, nil
		}
	}
	return hub.Device{}, fmt.Errorf("unknown device %q", name)
}
