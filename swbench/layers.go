package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/fleetd"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
	"sidewinder/internal/parallel"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sched"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// The layer probes give every traced run the same per-layer metrics: each
// probe times calls into one module's public API, inside a span named
// after the module, on the workload's own inputs (probeInputs). They run
// after the workload's own traced execution, on every workload, so the
// traced JSON always carries the full per-layer set.

const probeBlock = 1024 // samples per block pushed, as the sim strategies do

// traceGen generates one of the workload's traces.
type traceGen func() (*sensor.Trace, error)

// probeInputs are the workload's inputs the probes run on. The workload
// supplies the trace generators and the fleet cells (and, for ingest, its
// server's final state); the probes fill in the rest.
type probeInputs struct {
	// genRobot, genAudio and genHuman regenerate the workload's first
	// trace of each kind with the workload's own configuration.
	genRobot, genAudio, genHuman traceGen
	// cells are fleet cells whose device sessions make the byte stream
	// the link and fleetd codec probes decode.
	cells []sim.FleetCell
	// ckpt is the registry state the fleetd probe restores a server
	// from; nil builds it from cells.
	ckpt *fleetd.Checkpoint
	// seed is the workload's seed; it drives the adapt probe's verdicts.
	seed int64

	robot, audio, human *sensor.Trace
	cat                 *core.Catalog
	apps                []*apps.App // steps, transitions, headbutts, sirens, music, phrase
	plans               []*core.Plan
}

// appShort names an app in metric names.
var appShort = []string{"steps", "transitions", "headbutts", "sirens", "music", "phrase"}

// mixes are the merged-interpreter app mixes, as indexes into appShort:
// one app per phone up to all six, accelerometer and microphone apps
// alternating so every mix above one spans both sensors.
var mixes = map[int][]int{1: {0}, 2: {0, 3}, 4: {0, 3, 1, 4}, 6: {0, 3, 1, 4, 2, 5}}

// nsPer times fn (which does units units of work per call) in five
// batches of at least 20 ms each and returns the median ns per unit.
func nsPer(units int, fn func()) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < 20*time.Millisecond {
			fn()
			calls++
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls*units))
	}
	return median(per)
}

func probeLayers(cfg runConfig, rep *report) error {
	rec := rep.rec
	in := rep.probe
	if in == nil {
		return fmt.Errorf("the workload supplied no probe inputs")
	}
	steps := []struct {
		name string
		fn   func(cfg runConfig, rep *report, in *probeInputs) error
	}{
		{"tracegen", probeTracegen},
		{"dsp", probeDSP},
		{"interp", probeInterp},
		{"ir", probeIR},
		{"sched", probeSched},
		{"adapt", probeAdapt},
		{"sim", probeSim},
		{"parallel", probeParallel},
		{"link", probeLink},
		{"fleetd", probeFleetd},
	}
	for _, s := range steps {
		if err := rec.timed(s.name+".probe", -1, func(int) error { return s.fn(cfg, rep, in) }); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	// Counts must repeat exactly: recompute them and compare.
	again, err := probeCounts(in)
	if err != nil {
		return err
	}
	first := map[string]float64{}
	for _, m := range rep.metrics {
		if _, ok := again[m.name]; ok {
			first[m.name] = m.value
		}
	}
	if !reflect.DeepEqual(first, again) {
		rep.fail("layer counts differ between two computations: %v vs %v", first, again)
	}
	return nil
}

func probeTracegen(cfg runConfig, rep *report, in *probeInputs) error {
	gens := []struct {
		name string
		dst  **sensor.Trace
		gen  traceGen
	}{
		{"robot", &in.robot, in.genRobot},
		{"audio", &in.audio, in.genAudio},
		{"human", &in.human, in.genHuman},
	}
	for _, g := range gens {
		var ms []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			tr, err := g.gen()
			if err != nil {
				return err
			}
			ms = append(ms, durMS(time.Since(start)))
			*g.dst = tr
		}
		rep.layer("tracegen."+g.name+"_ms", median(ms), "ms", len(ms))
	}
	in.cat = core.DefaultCatalog()
	in.apps = []*apps.App{apps.Steps(), apps.Transitions(), apps.Headbutts(),
		apps.Sirens(), apps.MusicJournal(), apps.PhraseDetection()}
	for _, a := range in.apps {
		p, err := a.Wake.Validate(in.cat)
		if err != nil {
			return err
		}
		in.plans = append(in.plans, p)
	}
	return nil
}

// traceFor is the probe trace an app's condition runs over.
func (in *probeInputs) traceFor(i int) *sensor.Trace {
	if i < 3 {
		return in.robot
	}
	return in.audio
}

// fftSizes lists the FFT lengths the catalog apps' compiled conditions
// use: spectrum stages and FFT block filters.
func fftSizes(in *probeInputs) ([]int, error) {
	set := map[int]bool{}
	for _, p := range in.plans {
		exec, _, err := ir.CompilePlan(in.cat, ir.CompileOptions{}, p)
		if err != nil {
			return nil, err
		}
		for _, n := range exec.Nodes {
			switch n.Kind {
			case core.KindFFT:
				set[dsp.NextPowerOfTwo(n.InLen)] = true
			case core.KindLowPass, core.KindHighPass:
				set[dsp.NextPowerOfTwo(n.OutLen)] = true
			}
		}
	}
	var out []int
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

func probeDSP(cfg runConfig, rep *report, in *probeInputs) error {
	sizes, err := fftSizes(in)
	if err != nil {
		return err
	}
	mic := in.audio.Channels[core.Mic]
	for _, n := range sizes {
		x := make([]float64, n)
		copy(x, mic)
		dst := make([]complex128, n)
		var ferr error
		ns := nsPer(1, func() { dst, ferr = dsp.FFTRealInto(dst, x) })
		if ferr != nil {
			return ferr
		}
		rep.layer(fmt.Sprintf("dsp.fft_real_ns.%d", n), ns, "ns", 5)
	}
	const rate = core.AudioRateHz
	bf, err := dsp.NewBlockFilter(dsp.HighPass, 750, rate, 1024)
	if err != nil {
		return err
	}
	rep.layer("dsp.fft_filter_ns_per_sample", nsPer(len(mic), func() {
		for src := mic; len(src) > 0; {
			n, _, _ := bf.Consume(src)
			src = src[n:]
		}
	}), "ns", 5)
	bq, err := dsp.NewLowPassBiquad(750, rate)
	if err != nil {
		return err
	}
	out := make([]float64, probeBlock)
	rep.layer("dsp.biquad_ns_per_sample", nsPer(len(mic), func() {
		for lo := 0; lo+probeBlock <= len(mic); lo += probeBlock {
			out, _ = bq.PushBlock(out[:0], mic[lo:lo+probeBlock])
		}
	}), "ns", 5)
	gb, err := dsp.NewGoertzelBank(850, 1800, rate, 1024, 8)
	if err != nil {
		return err
	}
	rep.layer("dsp.goertzel_ns_per_sample", nsPer(len(mic), func() {
		for src := mic; len(src) > 0; {
			n, _, _ := gb.Consume(src)
			src = src[n:]
		}
	}), "ns", 5)
	q := make([]int32, probeBlock)
	var sink int32
	rep.layer("dsp.q15_features_ns_per_sample", nsPer(len(mic), func() {
		for lo := 0; lo+probeBlock <= len(mic); lo += probeBlock {
			q = dsp.ToQ15Slice(q, mic[lo:lo+probeBlock])
			sink += dsp.MeanQ15(q) + dsp.VarianceQ15(q) + dsp.RMSQ15(q) + dsp.ZeroCrossingRateQ15(q)
		}
	}), "ns", 5)
	_ = sink
	return nil
}

// pushTrace replays the trace's samples on the given channels in
// probeBlock chunks and returns the number of trace samples replayed: the
// trace length when it carries any of the channels, else zero.
func pushTrace(push func(ch core.SensorChannel, block []float64), channels []core.SensorChannel, tr *sensor.Trace) int {
	used := false
	for _, ch := range channels {
		_, ok := tr.Channels[ch]
		used = used || ok
	}
	if !used {
		return 0
	}
	for lo := 0; lo < tr.Len(); lo += probeBlock {
		hi := min(lo+probeBlock, tr.Len())
		for _, ch := range channels {
			if samples, ok := tr.Channels[ch]; ok {
				push(ch, samples[lo:hi])
			}
		}
	}
	return tr.Len()
}

// runMachines replays each app's compiled condition over its probe trace
// on a single-plan machine, returning the time per trace sample per app.
// A non-nil profile is attached to every machine.
func runMachines(in *probeInputs, prof *telemetry.InterpProfile) ([]float64, error) {
	var out []float64
	for i, p := range in.plans {
		exec, _, err := ir.CompilePlan(in.cat, ir.CompileOptions{}, p)
		if err != nil {
			return nil, err
		}
		m, err := interp.NewPrecision(exec, interp.Float64)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			m.SetProfile(prof)
		}
		tr := in.traceFor(i)
		start := time.Now()
		pushTrace(func(ch core.SensorChannel, b []float64) { m.PushBlock(ch, b) }, exec.Channels, tr)
		out = append(out, float64(time.Since(start).Nanoseconds())/float64(tr.Len()))
	}
	return out, nil
}

func probeInterp(cfg runConfig, rep *report, in *probeInputs) error {
	var runs [][]float64
	for r := 0; r < 3; r++ {
		ns, err := runMachines(in, nil)
		if err != nil {
			return err
		}
		runs = append(runs, ns)
	}
	for i, name := range appShort {
		rep.layer("interp.machine_ns_per_sample."+name, median([]float64{runs[0][i], runs[1][i], runs[2][i]}), "ns", 3)
	}
	for _, m := range []int{1, 2, 4, 6} {
		var plans []*core.Plan
		for _, i := range mixes[m] {
			plans = append(plans, in.plans[i])
		}
		sp, err := ir.CompilePlans(in.cat, ir.CompileOptions{}, plans...)
		if err != nil {
			return err
		}
		var ns []float64
		for r := 0; r < 3; r++ {
			mg, err := interp.NewShared(interp.Float64, sp)
			if err != nil {
				return err
			}
			push := func(ch core.SensorChannel, b []float64) { mg.PushBlock(ch, b) }
			start := time.Now()
			n := pushTrace(push, sp.Plan.Channels, in.robot) + pushTrace(push, sp.Plan.Channels, in.audio)
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		rep.layer(fmt.Sprintf("interp.merged_ns_per_sample.m%d", m), median(ns), "ns", len(ns))
	}
	counts, err := probeCounts(in)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := "ratio"
		if n == "interp.invocations" {
			unit = "count"
		}
		rep.layer(n, counts[n], unit, 1)
	}
	return nil
}

// probeCounts computes the deterministic count metrics: interpreter
// invocations and per-kind emission ratios from an InterpProfile, the
// 6-app mix's shared-node fraction, the scheduler's admission fraction
// and the adapt engine's acceptance fraction.
func probeCounts(in *probeInputs) (map[string]float64, error) {
	prof := telemetry.NewInterpProfile()
	if _, err := runMachines(in, prof); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var inv int64
	for _, s := range prof.Stages() {
		inv += s.Invocations
		if s.Invocations > 0 {
			out["interp.emit_ratio."+s.Kind] = float64(s.Emissions) / float64(s.Invocations)
		}
	}
	out["interp.invocations"] = float64(inv)
	sp, err := ir.CompilePlans(in.cat, ir.CompileOptions{}, in.plans...)
	if err != nil {
		return nil, err
	}
	out["ir.shared_node_frac.m6"] = float64(sp.Stats.SharedNodes) / float64(sp.Stats.InNodes)
	admitted, total, _, _, err := schedPopulation(in)
	if err != nil {
		return nil, err
	}
	out["sched.admit_frac"] = float64(admitted) / float64(total)
	accepted, proposed, _, err := adaptSteps(in)
	if err != nil {
		return nil, err
	}
	out["adapt.accept_frac"] = float64(accepted) / float64(proposed)
	return out, nil
}

func probeIR(cfg runConfig, rep *report, in *probeInputs) error {
	texts := make([]string, len(in.plans))
	for i, p := range in.plans {
		texts[i] = ir.CompileToText(p)
	}
	var cerr error
	us := nsPer(1, func() {
		plans := make([]*core.Plan, len(texts))
		for i, t := range texts {
			if plans[i], cerr = ir.ParseAndBind(t, in.cat); cerr != nil {
				return
			}
		}
		_, cerr = ir.CompilePlans(in.cat, ir.CompileOptions{}, plans...)
	}) / 1000
	if cerr != nil {
		return cerr
	}
	rep.layer("ir.compile_us.m6", us, "us", 5)
	return nil
}

// probeDevice is the hub the adapt probe re-admits onto.
func probeDevice() hub.Device {
	for _, d := range hub.Devices() {
		if d.Name == "LM4F120" {
			return d
		}
	}
	return hub.Devices()[0]
}

// schedPopulation admits every fleet cell's app mix, with the cell's
// priorities, on the cheapest hub device (the first one sim.FleetRun
// tries), then updates every condition in place. It returns the
// conditions placed on the hub, the total, and the per-call admission and
// update times in µs.
func schedPopulation(in *probeInputs) (admitted, total int, addUS, updUS []float64, err error) {
	byName := map[string]*core.Plan{}
	for i, a := range in.apps {
		byName[a.Name] = in.plans[i]
	}
	dev := hub.Devices()[0]
	for _, c := range in.cells {
		s := sched.New(dev)
		for k, name := range c.Apps {
			plan := byName[name]
			if plan == nil {
				err = fmt.Errorf("fleet cell app %q is not in the catalog", name)
				return
			}
			start := time.Now()
			_, err = s.Add(uint16(k+1), plan, c.Priorities[k])
			addUS = append(addUS, float64(time.Since(start).Nanoseconds())/1000)
			if err != nil {
				return
			}
		}
		for k, name := range c.Apps {
			start := time.Now()
			_, err = s.Update(uint16(k+1), byName[name])
			updUS = append(updUS, float64(time.Since(start).Nanoseconds())/1000)
			if err != nil {
				return
			}
		}
		admitted += len(s.HubSet())
		total += len(c.Apps)
	}
	return
}

func probeSched(cfg runConfig, rep *report, in *probeInputs) error {
	_, _, add, upd, err := schedPopulation(in)
	if err != nil {
		return err
	}
	rep.layer("sched.admit_us", median(add), "us", len(add))
	rep.layer("sched.update_us", median(upd), "us", len(upd))
	return nil
}

// adaptSteps drives one adapt engine per catalog app with a verdict
// stream seeded from the workload's seed. Each proposal is re-parameterized, checked against the hub
// budget and re-admitted through the scheduler; a refusal vetoes it. It
// returns the accepted and proposed counts and the time of each step that
// proposed something (observe → reparameterize → re-admit), in µs.
func adaptSteps(in *probeInputs) (accepted, proposed int, stepUS []float64, err error) {
	rng := rand.New(rand.NewSource(in.seed))
	cfg := adapt.DefaultConfig()
	cfg.Patience, cfg.Cooldown = 3, 6
	dev := probeDevice()
	budget := sched.BudgetFor(dev)
	for _, base := range in.plans {
		e := adapt.NewEngine(cfg)
		s := sched.New(dev)
		if _, err = s.Add(1, base, 0); err != nil {
			return
		}
		for step := 0; step < 400; step++ {
			sig := adapt.TrueWake
			switch r := rng.Float64(); {
			case r < 0.03:
				sig = adapt.MissedWake
			case r < 0.13:
				sig = adapt.FalseWake
			}
			start := time.Now()
			e.Observe(sig)
			moved := false
			for e.TakeDirty() {
				moved = true
				proposed++
				k := e.Knobs()
				plan, rerr := adapt.Reparameterize(in.cat, base, k)
				if rerr != nil || !adapt.FitsBudget(budget, plan, k.Precision) {
					e.Veto()
					continue
				}
				if _, err = s.Update(1, plan); err != nil {
					return
				}
				if p, _ := s.Placement(1); p != sched.PlacedHub {
					e.Veto()
					continue
				}
				accepted++
				break
			}
			if moved {
				stepUS = append(stepUS, float64(time.Since(start).Nanoseconds())/1000)
			}
		}
	}
	return
}

func probeAdapt(cfg runConfig, rep *report, in *probeInputs) error {
	_, _, steps, err := adaptSteps(in)
	if err != nil {
		return err
	}
	rep.layer("adapt.step_us", median(steps), "us", len(steps))
	return nil
}

// simProbe is one strategy run over a probe trace.
type simProbe struct {
	name  string
	simS  float64 // simulated seconds the run covers
	run   func() error
	cells int
}

func simProbes(in *probeInputs) []simProbe {
	tr, app := in.robot, in.apps[0]
	trSec := float64(tr.Len()) / tr.RateHz
	strat := func(s sim.Strategy) func() error {
		return func() error { _, err := s.Run(tr, app); return err }
	}
	acfg := adapt.DefaultConfig()
	acfg.Patience, acfg.Cooldown = 3, 6
	const fleetPhones = 8
	return []simProbe{
		{name: "AlwaysAwake", simS: trSec, run: strat(sim.AlwaysAwake{})},
		{name: "DutyCycling", simS: trSec, run: strat(sim.DutyCycling{SleepSec: 10})},
		{name: "Batching", simS: trSec, run: strat(sim.Batching{SleepSec: 10})},
		{name: "PredefinedActivity", simS: trSec, run: strat(sim.PredefinedActivity{Kind: sim.SignificantMotion, Threshold: 0.5})},
		{name: "Sidewinder", simS: trSec, run: strat(sim.Sidewinder{})},
		{name: "Oracle", simS: trSec, run: strat(sim.Oracle{})},
		{name: "AdaptiveSidewinder", simS: trSec, run: strat(sim.AdaptiveSidewinder{Config: acfg})},
		{name: "FleetRun", simS: fleetPhones * trSec, run: func() error {
			_, err := sim.FleetRun(sim.FleetRunConfig{Devices: fleetPhones, AppsPerDevice: 4, Seed: 7, Workers: 1,
				Accel: []*sensor.Trace{in.robot}, Audio: []*sensor.Trace{in.audio}})
			return err
		}},
		{name: "crash", simS: trSec, run: func() error {
			_, err := sim.CrashRun(tr, app, sim.CrashRunConfig{
				Fallback: sim.FallbackDutyCycle,
				Crash: resilience.CrashProfile{Seed: 0xC5A5, MTBFTicks: 60 * tr.RateHz,
					MeanDownTicks: 5 * tr.RateHz, MaxDownTicks: int(20 * tr.RateHz)},
				Supervisor: &resilience.SupervisorConfig{PingIntervalTicks: 8, TimeoutTicks: 8, MissBudget: 2,
					ProbeBackoffTicks: 16, MaxProbeBackoffTicks: 128},
			})
			return err
		}},
	}
}

func probeSim(cfg runConfig, rep *report, in *probeInputs) error {
	for _, p := range simProbes(in) {
		var ms []float64
		for r := 0; r < 3; r++ {
			var err error
			id := rep.rec.begin("sim."+p.name, -1)
			start := time.Now()
			err = p.run()
			ms = append(ms, durMS(time.Since(start)))
			rep.rec.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		m := median(ms)
		rep.layer("sim.run_ms."+p.name, m, "ms", len(ms))
		rep.layer("sim.host_ns_per_sim_s."+p.name, m*1e6/p.simS, "ns", len(ms))
	}
	return nil
}

// probeParallel fans the single-trace strategy probes over the worker
// pool, twice each, and reports the cells' time distribution and how busy
// the workers were.
func probeParallel(cfg runConfig, rep *report, in *probeInputs) error {
	probes := simProbes(in)[:7]
	n := 2 * len(probes)
	start := time.Now()
	cellMS, err := parallel.Map(cfg.workers, n, func(i int) (float64, error) {
		t := time.Now()
		err := probes[i%len(probes)].run()
		return durMS(time.Since(t)), err
	})
	if err != nil {
		return err
	}
	wall := durMS(time.Since(start))
	var busy float64
	for _, c := range cellMS {
		busy += c
	}
	rep.layer("parallel.cell_ms_p50", median(cellMS), "ms", n)
	rep.layer("parallel.cell_ms_max", percentile(cellMS, 1), "ms", n)
	rep.layer("parallel.busy_frac", busy/(wall*float64(cfg.workers)), "ratio", n)
	return nil
}

// cellStream encodes one session of every cell, each from a fresh
// device, back to back: the byte stream a fleetd server reads when the
// cells' devices report once.
func cellStream(cells []sim.FleetCell) []byte {
	var stream []byte
	var s ingestSession
	for i := range cells {
		s.encode(&ingestDevice{id: uint64(i + 1), cell: &cells[i]})
		stream = append(stream, s.wire...)
	}
	return stream
}

// cellCheckpoint is the registry state after every cell's device
// reported once.
func cellCheckpoint(cells []sim.FleetCell) fleetd.Checkpoint {
	ncomp := len(telemetry.Components())
	cp := fleetd.Checkpoint{Epoch: 1}
	for i := range cells {
		c := &cells[i]
		d := fleetd.DeviceStats{ID: uint64(i + 1), Wakes: uint64(c.Wakes),
			Heartbeats: uint64(cellFrames(c) - c.Wakes - 8), EnergyMJ: make([]float64, ncomp)}
		for _, dep := range deposits(c) {
			d.EnergyMJ[dep.Component] += dep.MJ
			d.TotalMJ += dep.MJ
		}
		d.LastSeq = uint32(cellFrames(c) - 1) // the bye's sequence number
		d.AckedSeq, d.AppliedSeq = d.LastSeq-1, d.LastSeq-1
		cp.Devices = append(cp.Devices, d)
	}
	return cp
}

func probeLink(cfg runConfig, rep *report, in *probeInputs) error {
	stream := cellStream(in.cells)
	var frames []link.Frame
	decode := func() {
		var dec link.Decoder
		frames = frames[:0]
		for lo := 0; lo < len(stream); lo += 16 << 10 {
			fs, _ := dec.Feed(stream[lo:min(lo+16<<10, len(stream))])
			frames = append(frames, fs...)
		}
	}
	decode()
	nframes := len(frames)
	if nframes == 0 {
		return fmt.Errorf("probe stream decoded to no frames")
	}
	rep.layer("link.decode_ns_per_frame", nsPer(nframes, decode), "ns", 5)
	var eerr error
	rep.layer("link.encode_ns_per_frame", nsPer(nframes, func() {
		for _, f := range frames {
			if _, err := link.Encode(f); err != nil {
				eerr = err
			}
		}
	}), "ns", 5)
	if eerr != nil {
		return eerr
	}
	rep.layer("link.bytes_per_frame", float64(len(stream))/float64(nframes), "bytes", 1)

	// fleetd payload codecs: decode every frame's payload by type and
	// encode it back.
	var cerr error
	rep.layer("fleetd.codec_ns_per_frame", nsPer(nframes, func() {
		for _, f := range frames {
			var p []byte
			switch f.Type {
			case fleetd.MsgResume:
				r, err := fleetd.DecodeResume(f.Payload)
				p, cerr = r.Encode(), err
			case fleetd.MsgDeviceWake:
				w, err := fleetd.DecodeWakeEvent(f.Payload)
				p, cerr = w.Encode(), err
			case fleetd.MsgDeviceHeartbeat:
				h, err := fleetd.DecodeHeartbeat(f.Payload)
				p, cerr = h.Encode(), err
			case fleetd.MsgDeviceEnergy:
				e, err := fleetd.DecodeEnergyEvent(f.Payload)
				p, cerr = e.Encode(), err
			case fleetd.MsgBye:
				b, err := fleetd.DecodeBye(f.Payload)
				p, cerr = b.Encode(), err
			}
			if len(p) != len(f.Payload) {
				cerr = fmt.Errorf("payload of type 0x%02x did not round-trip", byte(f.Type))
			}
		}
	}), "ns", 5)
	return cerr
}

// probeFleetd restores a server from the workload's registry state and
// times Snapshot and WriteCheckpoint on it.
func probeFleetd(cfg runConfig, rep *report, in *probeInputs) error {
	dir := filepath.Join(cfg.workdir, "fleetd-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cp := in.ckpt
	if cp == nil {
		c := cellCheckpoint(in.cells)
		cp = &c
	}
	path := filepath.Join(dir, "fleetd.ckpt")
	if err := fleetd.WriteCheckpoint(path, *cp); err != nil {
		return err
	}
	srv, err := fleetd.NewServer(fleetd.Config{Addr: "127.0.0.1:0", CheckpointPath: path})
	if err != nil {
		return err
	}
	var snapMS, ckptMS []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		snap := srv.Snapshot()
		snapMS = append(snapMS, durMS(time.Since(start)))
		if len(snap.Devices) != len(cp.Devices) {
			return fmt.Errorf("restored %d devices, wrote %d", len(snap.Devices), len(cp.Devices))
		}
		start = time.Now()
		if err := fleetd.WriteCheckpoint(path, snap); err != nil {
			return err
		}
		ckptMS = append(ckptMS, durMS(time.Since(start)))
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.layer("fleetd.snapshot_ms", median(snapMS), "ms", len(snapMS))
	rep.layer("fleetd.checkpoint_ms", median(ckptMS), "ms", len(ckptMS))
	rep.layer("fleetd.checkpoint_bytes", float64(st.Size()), "bytes", 1)
	return nil
}
