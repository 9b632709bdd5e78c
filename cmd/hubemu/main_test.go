package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sidewinder/internal/core"
	"sidewinder/internal/fleetd"
	"sidewinder/internal/ir"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

const stepsIR = `# pipeline: steps-wake
ACC_X -> movingAvg(id=1, params={3});
1 -> window(id=2, params={25, 12, rectangular});
2 -> stat(id=3, params={stddev});
3 -> minThreshold(id=4, params={0.7, 1});
4 -> OUT;
`

func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return saveTrace(t, dir, "run.swtr", tr)
}

func TestReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "steps.ir")
	if err := os.WriteFile(irPath, []byte(stepsIR), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := writeTrace(t, dir)
	if err := run(io.Discard, irPath, tracePath, "", false, "", "", "", "", nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Forcing the LM4F120 works; verbose path also exercised.
	if err := run(io.Discard, irPath, tracePath, "LM4F120", true, "", "", "", "", nil); err != nil {
		t.Fatalf("forced device: %v", err)
	}
}

func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "steps.ir")
	os.WriteFile(irPath, []byte(stepsIR), 0o644)
	tracePath := writeTrace(t, dir)

	if err := run(io.Discard, "", tracePath, "", false, "", "", "", "", nil); err == nil {
		t.Error("missing -ir should fail")
	}
	if err := run(io.Discard, irPath, "", "", false, "", "", "", "", nil); err == nil {
		t.Error("missing -trace should fail")
	}
	if err := run(io.Discard, irPath, tracePath, "Z80", false, "", "", "", "", nil); err == nil {
		t.Error("unknown device should fail")
	}

	// Audio condition on an accel trace: missing channel.
	audioIR := "MIC -> window(id=1, params={64, 0, rectangular});\n1 -> stat(id=2, params={rms});\n2 -> minThreshold(id=3, params={0.5, 1});\n3 -> OUT;\n"
	audioPath := filepath.Join(dir, "audio.ir")
	os.WriteFile(audioPath, []byte(audioIR), 0o644)
	if err := run(io.Discard, audioPath, tracePath, "", false, "", "", "", "", nil); err == nil {
		t.Error("missing channel should fail")
	}

	// A JSON trace also loads.
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: 30 * time.Second, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "run.json")
	f, _ := os.Create(jsonPath)
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(io.Discard, irPath, jsonPath, "", false, "", "", "", "", nil); err != nil {
		t.Errorf("json trace: %v", err)
	}
	_ = sensor.Event{} // keep the import for clarity of the test's domain
}

// TestReplayCrashProfile exercises -crash-profile: a valid spec replays
// with crashes reported, malformed specs are rejected, and the parser
// maps every key onto the profile.
func TestReplayCrashProfile(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "steps.ir")
	if err := os.WriteFile(irPath, []byte(stepsIR), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := writeTrace(t, dir)

	if err := run(io.Discard, irPath, tracePath, "", true, "", "", "mtbf=500,down=100,seed=1,kind=reset", "", nil); err != nil {
		t.Fatalf("crash replay: %v", err)
	}

	p, err := parseCrashProfile("mtbf=3000, down=40, max=200, seed=2, kind=brownout")
	if err != nil {
		t.Fatal(err)
	}
	if p.MTBFTicks != 3000 || p.MeanDownTicks != 40 || p.MaxDownTicks != 200 ||
		p.Seed != 2 || p.BrownoutWeight != 1 || p.ResetWeight != 0 {
		t.Errorf("parsed profile %+v", p)
	}

	for _, bad := range []string{
		"down=40",          // mtbf missing
		"mtbf=0",           // disabled
		"mtbf",             // not key=value
		"mtbf=x",           // bad number
		"mtbf=10,kind=ebs", // unknown kind
		"mtbf=10,foo=1",    // unknown key
	} {
		if _, err := parseCrashProfile(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

// TestReplayTelemetryFiles exercises -metrics/-traceout: the replay must
// write a parseable metrics JSON object whose ledger carries the device's
// energy, and a Chrome trace_event JSON document with wake instants and
// stage spans.
func TestReplayTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "steps.ir")
	if err := os.WriteFile(irPath, []byte(stepsIR), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := writeTrace(t, dir)
	metricsFile := filepath.Join(dir, "metrics.json")
	traceFile := filepath.Join(dir, "trace.json")

	if err := run(io.Discard, irPath, tracePath, "", false, metricsFile, traceFile, "", "", nil); err != nil {
		t.Fatal(err)
	}

	var metrics struct {
		Metrics []map[string]any `json:"metrics"`
		Ledger  struct {
			EnergyMJ map[string]float64 `json:"energy_mj"`
		} `json:"ledger"`
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
	if metrics.Ledger.EnergyMJ["hub.device"] <= 0 {
		t.Errorf("ledger has no hub.device energy: %v", metrics.Ledger.EnergyMJ)
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
	var wakeEvents, spans int
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "i":
			if ev["name"] == "wake.sent" {
				wakeEvents++
			}
		case "X":
			spans++
		}
	}
	if wakeEvents == 0 {
		t.Error("trace has no wake.sent instants")
	}
	if spans == 0 {
		t.Error("trace has no per-stage spans")
	}
}

// TestReplayInterruptedStillFlushesTelemetry: a drain requested before
// the replay starts must still produce the -metrics file — the graceful
// path flushes telemetry instead of dying mid-frame — and the report
// gives the span actually replayed, not the trace's duration.
func TestReplayInterruptedStillFlushesTelemetry(t *testing.T) {
	dir := t.TempDir()
	irPath := filepath.Join(dir, "steps.ir")
	if err := os.WriteFile(irPath, []byte(stepsIR), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := writeTrace(t, dir)
	metricsFile := filepath.Join(dir, "metrics.json")

	d := fleetd.WatchSignals(syscall.SIGUSR1)
	defer d.Stop()
	d.Request() // interrupt before the first sample
	var out bytes.Buffer
	if err := run(&out, irPath, tracePath, "", false, metricsFile, "", "", "", d); err != nil {
		t.Fatalf("interrupted replay: %v", err)
	}
	for _, want := range []string{
		"interrupted at sample 0 of 3000: flushing telemetry\n",
		": 0 samples/channel over 0s\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("metrics file missing after interrupted run: %v", err)
	}
	var doc struct {
		Metrics json.RawMessage `json:"metrics"`
		Ledger  json.RawMessage `json:"ledger"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, data)
	}
	if len(doc.Metrics) == 0 || len(doc.Ledger) == 0 {
		t.Fatalf("metrics file incomplete: %s", data)
	}

	// A crash-injected replay interrupted the same way flushes its
	// text-format metrics too.
	d2 := fleetd.WatchSignals(syscall.SIGUSR1)
	defer d2.Stop()
	d2.Request()
	metrics2 := filepath.Join(dir, "metrics2.txt")
	if err := run(io.Discard, irPath, tracePath, "", false, metrics2, "", "mtbf=500,down=100,seed=1", "", d2); err != nil {
		t.Fatalf("interrupted crash replay: %v", err)
	}
	if _, err := os.Stat(metrics2); err != nil {
		t.Fatalf("metrics file missing after interrupted crash run: %v", err)
	}
}

// TestStaticDemandTable pins the -v static-demand table: one row per
// algorithm kind matching ir.DemandByKind, and a total row equal to the
// sum of the per-stage rows.
func TestStaticDemandTable(t *testing.T) {
	plan, err := ir.ParseAndBind(stepsIR, core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pickDevice("", plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printStaticDemand(&buf, plan, dev)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "static demand by stage") {
		t.Fatalf("malformed table:\n%s", buf.String())
	}
	num := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad number %q in table:\n%s", s, buf.String())
		}
		return v
	}

	want := ir.DemandByKind(ir.CompileOptions{}, plan)
	rows, total := lines[1:len(lines)-1], strings.Fields(lines[len(lines)-1])
	if len(rows) != len(want) || len(want) != 4 {
		t.Fatalf("%d stage rows, want %d (one per kind of the 4-stage plan):\n%s", len(rows), len(want), buf.String())
	}
	var sumCycles, sumMem float64
	for i, row := range rows {
		f := strings.Fields(row)
		if len(f) != 6 {
			t.Fatalf("row %q: %d fields, want 6", row, len(f))
		}
		kd := want[i]
		cycles := dev.Cycles(kd.FloatOpsPerSec, kd.IntOpsPerSec)
		if f[0] != string(kd.Kind) || f[1] != "x"+strconv.Itoa(kd.Nodes) ||
			num(f[2]) != math.Round(cycles) || int(num(f[4])) != kd.MemoryBytes {
			t.Errorf("row %q does not match ir.DemandByKind %+v (%.0f cycles/s)", row, kd, cycles)
		}
		sumCycles += num(f[2])
		sumMem += num(f[4])
	}
	if total[0] != "total" {
		t.Fatalf("last row %q is not the total", lines[len(lines)-1])
	}
	// Each printed figure is rounded to a whole cycle, so the rounded rows
	// may drift from the rounded total by at most half a cycle apiece.
	if d := math.Abs(sumCycles - num(total[1])); d > 0.5*float64(len(rows)+1) {
		t.Errorf("stage rows sum to %.0f cycles/s, total row says %s", sumCycles, total[1])
	}
	if sumMem != num(total[3]) {
		t.Errorf("stage rows sum to %.0f B, total row says %s B", sumMem, total[3])
	}
}
