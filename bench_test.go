package sidewinder_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each experiment benchmark
// runs a reduced-duration version of the corresponding experiment per
// iteration, prints the rendered table once, and reports the headline
// numbers as custom benchmark metrics. The full-scale (paper-duration)
// tables come from `go run ./cmd/sidewinder-eval`, which uses the same
// code with 30-minute/2-hour traces.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sidewinder"
	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/eval"
	"sidewinder/internal/interp"
)

// benchOptions keeps per-iteration work around a few seconds. One
// worker makes each benchmark's allocs/op reproducible: calibration's
// early-stopping scan simulates a schedule-dependent set of cells on a
// pool. BenchmarkParallelEval sets its own worker counts.
func benchOptions() eval.Options {
	return eval.Options{
		Seed:             1,
		Workers:          1,
		RobotRunDuration: 4 * time.Minute,
		AudioDuration:    5 * time.Minute,
		HumanDuration:    20 * time.Minute,
	}
}

var (
	benchWorkloadOnce sync.Once
	benchWorkload     *eval.Workload
	benchWorkloadErr  error
)

func workload(b *testing.B) *eval.Workload {
	b.Helper()
	benchWorkloadOnce.Do(func() {
		benchWorkload, benchWorkloadErr = eval.GenerateWorkload(benchOptions())
	})
	if benchWorkloadErr != nil {
		b.Fatal(benchWorkloadErr)
	}
	return benchWorkload
}

var printOnce sync.Map

// printTable prints a rendered table exactly once per benchmark name.
func printTable(name, rendered string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Println(rendered)
	}
}

// evalLoop drives a whole-evaluation benchmark: one untimed warm-up
// call, then b.N timed calls, each starting from a collected heap. These
// benchmarks run at b.N = 1 or 2, and without the warm-up and the forced
// GC their allocs/op would depend on what ran before them in the process
// (each GC empties the standard library's sync.Pools), so a lone
// `-bench <one>` would not repeat the full run's count.
func evalLoop(b *testing.B, iter func(i int) error) {
	b.Helper()
	if err := iter(-1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if err := iter(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1PowerProfile regenerates the Nexus 4 power profile
// (paper Table 1) from the power model.
func BenchmarkTable1PowerProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := eval.Table1()
		if i == 0 {
			printTable("table1", tb.Render())
		}
	}
}

// BenchmarkTable2AudioPower regenerates the audio-application power matrix
// (paper Table 2): Oracle vs calibrated Predefined Activity vs Sidewinder.
func BenchmarkTable2AudioPower(b *testing.B) {
	w := workload(b)
	evalLoop(b, func(i int) error {
		res, err := eval.Table2(w)
		if err != nil {
			return err
		}
		if i == 0 {
			printTable("table2", res.Table.Render())
		}
		b.ReportMetric(res.PowerMW["Sidewinder"]["sirens"], "sw-sirens-mW")
		b.ReportMetric(res.PowerMW["Sidewinder"]["music"], "sw-music-mW")
		b.ReportMetric(res.PowerMW["Sidewinder"]["phrase"], "sw-phrase-mW")
		b.ReportMetric(res.PowerMW["Predefined Activity"]["music"], "pa-mW")
		return nil
	})
}

// BenchmarkFigure5RobotPower regenerates the robot-trace configuration
// matrix (paper Fig. 5): power relative to Oracle for AA, DC, Batching,
// PA and Sidewinder across the three activity groups.
func BenchmarkFigure5RobotPower(b *testing.B) {
	o := benchOptions()
	w := workload(b)
	evalLoop(b, func(i int) error {
		res, err := eval.Figure5(o, w)
		if err != nil {
			return err
		}
		if i == 0 {
			for _, tb := range res.Tables {
				printTable("fig5-"+tb.Title, tb.Render())
			}
		}
		b.ReportMetric(res.Relative["steps"][1]["Sw"], "sw-steps-g1-x")
		b.ReportMetric(res.Relative["headbutts"][1]["Sw"], "sw-headbutts-g1-x")
		b.ReportMetric(res.Relative["headbutts"][1]["PA"], "pa-headbutts-g1-x")
		return nil
	})
}

// BenchmarkFigure6DutyCycleRecall regenerates duty-cycling recall vs sleep
// interval on the 90%-idle runs (paper Fig. 6).
func BenchmarkFigure6DutyCycleRecall(b *testing.B) {
	o := benchOptions()
	w := workload(b)
	evalLoop(b, func(i int) error {
		res, err := eval.Figure6(o, w)
		if err != nil {
			return err
		}
		if i == 0 {
			printTable("fig6", res.Table.Render())
		}
		b.ReportMetric(res.Recall["steps"][10]*100, "dc10-steps-recall-%")
		b.ReportMetric(res.Recall["transitions"][10]*100, "dc10-transitions-recall-%")
		return nil
	})
}

// BenchmarkFigure7HumanPower regenerates the human-trace step-detector
// comparison (paper Fig. 7), with recall measured against Always Awake.
func BenchmarkFigure7HumanPower(b *testing.B) {
	o := benchOptions()
	w := workload(b)
	evalLoop(b, func(i int) error {
		res, err := eval.Figure7(o, w)
		if err != nil {
			return err
		}
		if i == 0 {
			printTable("fig7", res.Table.Render())
		}
		var minSavings = 1.0
		for _, s := range res.SidewinderSavings {
			if s < minSavings {
				minSavings = s
			}
		}
		b.ReportMetric(minSavings*100, "sw-min-savings-%")
		return nil
	})
}

// BenchmarkSavingsAnalysis regenerates the §5.1-5.2 headline numbers:
// Sidewinder's share of the savings an ideal wake-up mechanism offers.
func BenchmarkSavingsAnalysis(b *testing.B) {
	o := benchOptions()
	w := workload(b)
	evalLoop(b, func(i int) error {
		res, err := eval.Savings(o, w)
		if err != nil {
			return err
		}
		if i == 0 {
			printTable("savings", res.Table.Render())
		}
		b.ReportMetric(res.AccelSavings["steps"][1]*100, "steps-g1-%")
		b.ReportMetric(res.AudioSavings["phrase"]*100, "phrase-%")
		return nil
	})
}

// BenchmarkParallelEval measures the Figure 5 experiment through the
// parallel harness at different worker counts. The rendered tables are
// byte-identical across counts, so the ratio between the sub-benchmarks is
// the harness speedup on this machine.
func BenchmarkParallelEval(b *testing.B) {
	o := benchOptions()
	base := workload(b)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			// One worker per CPU; the name leaves the count out so the
			// allocs/op baseline matches on any host.
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			w := *base
			w.Workers = workers
			evalLoop(b, func(int) error {
				_, err := eval.Figure5(o, &w)
				return err
			})
		})
	}
}

// ------------------------------------------------------------ components

// BenchmarkHubInterpreterAccel measures the hub interpreter's throughput
// on the significant-motion condition (samples per second matter: the
// real MCU must keep up with the sensor in real time).
func BenchmarkHubInterpreterAccel(b *testing.B) {
	p := sidewinder.NewPipeline("bench")
	for _, ch := range []sidewinder.SensorChannel{sidewinder.AccelX, sidewinder.AccelY, sidewinder.AccelZ} {
		p.AddBranch(sidewinder.NewBranch(ch).Add(sidewinder.MovingAverage(10)))
	}
	p.Add(sidewinder.VectorMagnitude())
	p.Add(sidewinder.MinThreshold(1e18))
	bed := pushBench(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.Feed(sidewinder.AccelX, 1)
		bed.Feed(sidewinder.AccelY, 1)
		bed.Feed(sidewinder.AccelZ, 1)
	}
}

// BenchmarkHubInterpreterAudio measures the FFT-heavy siren condition.
func BenchmarkHubInterpreterAudio(b *testing.B) {
	bed := pushBench(b, sidewinder.Sirens().Wake)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.Feed(sidewinder.Mic, float64(i%7)*0.01)
	}
}

// BenchmarkFFTReal tracks the per-window transform of the audio hot path:
// the one-shot allocating API next to the scratch-carrying variant the
// interpreter uses, which must stay allocation-free in steady state.
func BenchmarkFFTReal(b *testing.B) {
	x := make([]float64, 400)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 25)
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsp.FFTReal(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		var spec []complex128
		var err error
		for i := 0; i < b.N; i++ {
			if spec, err = dsp.FFTRealInto(spec, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMachinePushSample measures interp.Machine.PushSample on the
// FFT-heavy siren condition without the manager in the loop; steady state
// must stay allocation-free.
func BenchmarkMachinePushSample(b *testing.B) {
	plan, err := apps.Sirens().Wake.Validate(core.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	m, err := interp.New(plan)
	if err != nil {
		b.Fatal(err)
	}
	ch := plan.Channels[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PushSample(ch, float64(i%7)*0.01)
	}
}

// BenchmarkPushBlock compares per-sample dispatch to block dispatch on the
// FFT-heavy siren condition: both sub-benchmarks run the same 1024-sample
// chunk through the interpreter per iteration, so the ns/op ratio is the
// block path's dispatch win. Steady state must stay allocation-free.
func BenchmarkPushBlock(b *testing.B) {
	plan, err := apps.Sirens().Wake.Validate(core.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	ch := plan.Channels[0]
	const chunk = 1024
	src := make([]float64, chunk)
	for i := range src {
		src[i] = float64(i%7) * 0.01
	}
	b.Run("sample-loop", func(b *testing.B) {
		m, err := interp.New(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range src {
			m.PushSample(ch, v) // warm scratch buffers
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range src {
				m.PushSample(ch, v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
	})
	b.Run("block", func(b *testing.B) {
		m, err := interp.New(plan)
		if err != nil {
			b.Fatal(err)
		}
		m.PushBlock(ch, src) // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PushBlock(ch, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
	})
}

// BenchmarkFixedPoint compares the float64 and Q15 substrates on the
// step-count accelerometer condition over the block path. Q15 models the
// FPU-less MCU; on this host the interesting number is that it stays in the
// same ballpark while remaining allocation-free.
func BenchmarkFixedPoint(b *testing.B) {
	plan, err := apps.Steps().Wake.Validate(core.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 1024
	src := make([]float64, chunk)
	for i := range src {
		src[i] = math.Sin(float64(i)/5)*3 + 9.81
	}
	for _, prec := range []interp.Precision{interp.Float64, interp.Q15} {
		b.Run(prec.String(), func(b *testing.B) {
			m, err := interp.NewPrecision(plan, prec)
			if err != nil {
				b.Fatal(err)
			}
			for _, ch := range plan.Channels {
				m.PushBlock(ch, src) // warm scratch buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ch := range plan.Channels {
					m.PushBlock(ch, src)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk*len(plan.Channels)), "ns/sample")
		})
	}
}

func pushBench(b *testing.B, p *sidewinder.Pipeline) *sidewinder.Testbed {
	b.Helper()
	bed, err := sidewinder.NewTestbed(sidewinder.TestbedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := bed.Push(p, sidewinder.ListenerFunc(func(sidewinder.Event) {})); err != nil {
		b.Fatal(err)
	}
	return bed
}

// BenchmarkIRCompile measures pipeline validation plus IR text generation.
func BenchmarkIRCompile(b *testing.B) {
	app := sidewinder.MusicJournal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sidewinder.CompileIR(app.Wake); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIRParseBind measures the hub-side parse+bind path.
func BenchmarkIRParseBind(b *testing.B) {
	text, err := sidewinder.CompileIR(sidewinder.Sirens().Wake)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sidewinder.ParseIR(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepDetector measures the main-CPU classifier over one minute
// of walking data.
func BenchmarkStepDetector(b *testing.B) {
	tr, err := sidewinder.GenerateRobotTrace(sidewinder.RobotConfig{
		Seed: 1, Duration: time.Minute, IdleFraction: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	app := sidewinder.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Detector.Detect(tr, 0, tr.Len())
	}
}

// BenchmarkRobotTraceGeneration measures synthesizing one minute of
// labeled robot accelerometer data.
func BenchmarkRobotTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sidewinder.GenerateRobotTrace(sidewinder.RobotConfig{
			Seed: int64(i + 1), Duration: time.Minute, IdleFraction: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudioTraceGeneration measures synthesizing one minute of
// labeled audio.
func BenchmarkAudioTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sidewinder.GenerateAudioTrace(
			sidewinder.NewAudioConfig(int64(i+1), time.Minute, "coffeeshop")); err != nil {
			b.Fatal(err)
		}
	}
}
