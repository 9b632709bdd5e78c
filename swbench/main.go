// Command swbench is the repository's benchmark. It runs one named
// workload, checks that the workload's outputs are correct, and prints
// its metrics by name with unit and sample count; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash swbench/run.sh --workload paper-eval|optin-sweeps|ingest \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it makes the traced run instead: spans around the
// calls into each layer, the per-layer breakdown, and the tracing
// overhead; the JSON then carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workers  int // GOMAXPROCS: simulation workers and ingest connections
	workdir  string
	ref      *refKernel // the reference kernel the gated times are scaled by
}

// metricKind says where a metric is reported.
type metricKind int

const (
	endToEnd metricKind = iota // JSON with --trace 0
	perLayer                   // JSON with --trace 1
	detail                     // breakdown text only
)

type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	kind    metricKind
}

// report accumulates one run's metrics and correctness verdict.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	rec       *recorder    // nil unless the run is traced
	probe     *probeInputs // the traced run's inputs for the layer probes
}

func (r *report) put(kind metricKind, name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, samples: n, kind: kind})
}

// add records an end-to-end metric.
func (r *report) add(name string, v float64, unit string, n int) { r.put(endToEnd, name, v, unit, n) }

// layer records a per-layer metric carried in the traced run's JSON.
func (r *report) layer(name string, v float64, unit string, n int) {
	r.put(perLayer, name, v, unit, n)
}

// detail records a breakdown metric that is printed but not in the JSON.
func (r *report) detail(name string, v float64, unit string, n int) { r.put(detail, name, v, unit, n) }

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig, *report) error{
	"paper-eval":   runPaperEval,
	"optin-sweeps": runOptinSweeps,
	"ingest":       runIngest,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper-eval, optin-sweeps or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measuring time budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "swbench"), "scratch directory for checkpoints and span dumps")
	flag.Parse()
	cfg.traced = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "swbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}

	ref, err := newRefKernel(cfg.workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench: reference kernel:", err)
		os.Exit(1)
	}
	cfg.ref = ref

	var rep report
	if cfg.traced {
		rep.rec = newRecorder()
	}
	if err := run(cfg, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	if cfg.traced {
		if err := probeLayers(cfg, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "swbench: layer probes:", err)
			os.Exit(1)
		}
		if err := writeSpans(cfg, rep.rec.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
	}
	printReport(os.Stdout, cfg, &rep)
	if len(rep.problems) > 0 || rep.failed > 0 {
		os.Exit(1)
	}
}

// printReport writes the human-readable table, then the JSON result line.
func printReport(w io.Writer, cfg runConfig, rep *report) {
	mode := "end-to-end, tracing off"
	if cfg.traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "swbench %s seed=%d seconds=%d workers=%d (%s) %s %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.workers, mode, runtime.Version(), runtime.GOARCH)
	for _, m := range rep.metrics {
		tag := map[metricKind]string{endToEnd: "e2e", perLayer: "layer", detail: "detail"}[m.kind]
		fmt.Fprintf(w, "%-6s %-44s %16.6f %-9s n=%d\n", tag, m.name, m.value, m.unit, m.samples)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	if cfg.traced {
		printSelfTime(w, rep.rec.snapshot())
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range rep.metrics {
		if m.kind != want {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Fprintf(w, "FAIL metric %s is not a number\n", m.name)
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

// printSelfTime prints the traced run's self time per layer, largest first.
func printSelfTime(w io.Writer, spans []span) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "self time by layer over %d spans:\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.3f ms\n", l, durMS(self[l]))
	}
}

// writeSpans dumps the traced run's spans as JSON lines into the work
// directory once the run has ended.
func writeSpans(cfg runConfig, spans []span) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		err = errors.Join(err, enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{i, s.Parent, s.Name, float64(s.Start) / float64(time.Microsecond), float64(s.End) / float64(time.Microsecond)}))
	}
	return errors.Join(err, f.Close())
}
