package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sidewinder/internal/eval"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := run(&out, io.Discard, "table1", eval.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("table output missing header:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// Unknown names must be rejected before any workload generation: the
	// full default workload takes minutes, and a typo should not pay for
	// it. The deadline guards the "upfront" property.
	start := time.Now()
	err := run(io.Discard, io.Discard, "figure-nine", eval.Options{})
	if err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejection took %v; validation must run before workload generation", d)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"figure-nine"`) {
		t.Errorf("error does not name the bad experiment: %q", msg)
	}
	for _, name := range experimentNames {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid experiment %q: %q", name, msg)
		}
	}
}

// TestTelemetryFlagsWriteFiles drives the -metrics/-trace plumbing end to
// end: a small link-reliability run with both sinks attached must produce
// a parseable metrics JSON object (registry + ledger) and a Chrome
// trace_event JSON document with events.
func TestTelemetryFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	metricsFile := filepath.Join(dir, "metrics.json")
	traceFile := filepath.Join(dir, "trace.json")

	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: time.Minute,
		AudioDuration:    30 * time.Second,
		HumanDuration:    time.Minute,
		Telemetry:        telemetrySet(metricsFile, traceFile),
	}
	if err := run(io.Discard, io.Discard, "link", opts); err != nil {
		t.Fatal(err)
	}
	if err := writeTelemetry(opts.Telemetry, metricsFile, traceFile); err != nil {
		t.Fatal(err)
	}

	var metrics struct {
		Metrics []map[string]any `json:"metrics"`
		Ledger  map[string]any   `json:"ledger"`
	}
	data, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if len(metrics.Metrics) == 0 {
		t.Error("metrics file has no counters")
	}
	if len(metrics.Ledger) == 0 {
		t.Error("metrics file has no ledger")
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, err = os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

// TestRunAllGolden pins the full `-experiment all` rendering at a small,
// fixed workload scale against a golden file, so a formatting or numeric
// regression in any table is caught without eyeballing docs/results/.
// The simulation is deterministic end to end (seeded traces, ordered
// parallel collection, seeded fault injection), so the bytes must match
// at any worker count. Refresh intentionally changed output with:
//
//	go test ./cmd/sidewinder-eval -run TestRunAllGolden -update
func TestRunAllGolden(t *testing.T) {
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    time.Minute,
		HumanDuration:    4 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
	var out strings.Builder
	if err := run(&out, io.Discard, "all", opts); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update if the change is intended)\ngot %d bytes, want %d",
			golden, len(got), len(want))
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
				break
			}
		}
	}
}

// TestRunCrashGolden pins the crash-resilience sweep at a small workload
// scale. The experiment is opt-in (excluded from "all"), so it carries
// its own golden; the all_small golden proves the crash subsystem left
// every other table byte-identical.
func TestRunCrashGolden(t *testing.T) {
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    time.Minute,
		HumanDuration:    4 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
	var out strings.Builder
	if err := run(&out, io.Discard, "crash", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Crash resilience") {
		t.Fatalf("missing crash table:\n%s", out.String())
	}
	golden := filepath.Join("testdata", "crash_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunFleetGolden pins the fleet capacity sweep at a small workload
// scale. Opt-in like "crash", so it carries its own golden file.
func TestRunFleetGolden(t *testing.T) {
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    time.Minute,
		HumanDuration:    4 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
	var out strings.Builder
	if err := run(&out, io.Discard, "fleet", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fleet capacity") {
		t.Fatalf("missing fleet table:\n%s", out.String())
	}
	golden := filepath.Join("testdata", "fleet_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunFleetNoCSEGolden pins the fleet sweep with cross-app sharing
// disabled (`-cse=false`) at the fleet golden's scale: every condition is
// billed and executed standalone, so this golden covers the scheduler's
// and the shared plan's CSE-off path.
func TestRunFleetNoCSEGolden(t *testing.T) {
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    time.Minute,
		HumanDuration:    4 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
		DisableCSE:       true,
	}
	var out strings.Builder
	if err := run(&out, io.Discard, "fleet", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fleet capacity") {
		t.Fatalf("missing fleet table:\n%s", out.String())
	}
	golden := filepath.Join("testdata", "fleet_nocse_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunFleetWorkerInvariance reruns the fleet sweep serially and with a
// large pool: the determinism contract demands byte-identical output.
// (The golden test pins the bytes; this one pins the worker independence
// explicitly, since fleet cells draw from per-cell seeded RNGs.)
func TestRunFleetWorkerInvariance(t *testing.T) {
	base := eval.Options{
		Seed:             1,
		RobotRunDuration: time.Minute,
		AudioDuration:    30 * time.Second,
		HumanDuration:    time.Minute,
		SleepIntervals:   []float64{2, 10},
	}
	render := func(workers int) string {
		t.Helper()
		opts := base
		opts.Workers = workers
		var out strings.Builder
		if err := run(&out, io.Discard, "fleet", opts); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial, wide := render(1), render(8)
	if serial != wide {
		t.Errorf("fleet output depends on worker count:\n1 worker:\n%s\n8 workers:\n%s", serial, wide)
	}
}

func TestRunSmallFigure6(t *testing.T) {
	// The cheapest workload-bearing experiment, as an end-to-end check
	// of the command path.
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: time.Minute,
		AudioDuration:    30 * time.Second,
		HumanDuration:    time.Minute,
		SleepIntervals:   []float64{2, 10},
	}
	if err := run(io.Discard, io.Discard, "fig6", opts); err != nil {
		t.Fatal(err)
	}
}

// TestRunAdaptiveGolden pins the closed-loop adaptation sweep at a small
// workload scale. Opt-in like "crash" and "fleet", so it carries its own
// golden file. The audio traces run four minutes — long enough for the
// policy engine to earn its rungs, which is what the table is about.
func TestRunAdaptiveGolden(t *testing.T) {
	opts := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    4 * time.Minute,
		HumanDuration:    2 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
	var out strings.Builder
	if err := run(&out, io.Discard, "adaptive", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Closed-loop adaptation") {
		t.Fatalf("missing adaptation table:\n%s", out.String())
	}
	golden := filepath.Join("testdata", "adaptive_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunAdaptiveWorkerInvariance reruns the adaptation sweep serially and
// with a large pool: the policy engine is driven only by the trace and
// cells aggregate in enqueue order, so the table must be byte-identical
// at any worker count — the contract the CI determinism leg re-checks
// against the committed golden.
func TestRunAdaptiveWorkerInvariance(t *testing.T) {
	base := eval.Options{
		Seed:             1,
		RobotRunDuration: 2 * time.Minute,
		AudioDuration:    4 * time.Minute,
		HumanDuration:    2 * time.Minute,
		SleepIntervals:   []float64{2, 10, 30},
	}
	render := func(workers int) string {
		t.Helper()
		opts := base
		opts.Workers = workers
		var out strings.Builder
		if err := run(&out, io.Discard, "adaptive", opts); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial, wide := render(1), render(8)
	if serial != wide {
		t.Errorf("adaptive output depends on worker count:\n1 worker:\n%s\n8 workers:\n%s", serial, wide)
	}
}
