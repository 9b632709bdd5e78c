package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sidewinder/internal/fleetd"
	"sidewinder/internal/sensor"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// ingestSetupReps is how many times the ingest workload builds its
// population and starts a server; setup_s is the median.
const ingestSetupReps = 5

// runIngest runs the ingest workload: set-up, the open-loop and
// closed-loop phases, drain, and the correctness gate. A traced run also
// replays the closed-loop rounds again with spans on (the untraced ones
// are the overhead reference) and adds the per-layer breakdown.
func runIngest(cfg runConfig, rep *report) error {
	conns := cfg.workers
	openDur := time.Duration(float64(cfg.seconds) * ingestOpenShare * float64(time.Second))
	openFrames := int(ingestOpenRate * openDur.Seconds())
	dir := filepath.Join(cfg.workdir, "ingest")

	var res *sim.FleetResult
	var srv *fleetd.Server
	var reg *telemetry.Registry
	setup := cfg.ref.timer()
	for i := 0; i < ingestSetupReps; i++ {
		if srv != nil {
			if _, err := srv.Drain(); err != nil {
				return err
			}
		}
		runtime.GC() // every repetition starts from the live heap alone
		err := setup.time(func() (float64, error) {
			start := time.Now()
			var err error
			if res, _, err = fleetd.BuildPopulation(ingestDevices, ingestApps, ingestPopulationSeed, ingestTraceDur, cfg.workers); err != nil {
				return 0, err
			}
			if srv, reg, err = ingestServer(dir); err != nil {
				return 0, err
			}
			return time.Since(start).Seconds(), nil
		})
		if err != nil {
			return err
		}
	}
	plan := newIngestPlan(cfg.seed, res.Cells, conns)

	// A closed-loop round is a whole number of passes over every
	// connection's devices, so every round replays the same sessions.
	pass := 0
	for c := 0; c < conns; c++ {
		pass += plan.passFrames(c)
	}
	closedFrames := ingestClosedRate * float64(cfg.seconds) * ingestClosedShare
	passesPerRound := max(1, int(math.Round(closedFrames/float64(ingestRounds*pass))))
	sliceFrames := openFrames / conns / ingestRounds // per connection

	ics := make([]*ingestConn, conns)
	for c := range ics {
		ics[c] = newIngestConn(srv.Addr(), newSessionOrder(cfg.seed, c, plan.devices[c]))
		// Room for every open-loop latency, so recording them allocates
		// nothing inside the measured phase.
		n := ingestRounds * (sliceFrames + 2*ingestDevices)
		ics[c].stats.latMS = make([]float64, 0, n)
		ics[c].stats.latWin = make([]int, 0, n)
	}

	rec := rep.rec
	runtime.GC() // the discarded set-up repetitions are garbage, not load
	heap := startHeapSampler(time.Millisecond)

	// openSlice runs one slice of the open loop. All connections share
	// one clock origin a little in the future, so the first frames are not
	// late by construction.
	interval := time.Duration(float64(time.Second) * float64(conns) / ingestOpenRate)
	openSlice := func(slice int) {
		span := rec.begin("ingest.open", -1)
		t0 := time.Now().Add(20 * time.Millisecond)
		runConns(conns, func(c int) {
			off := interval * time.Duration(c) / time.Duration(conns)
			ics[c].runOpen(sliceFrames, slice, t0, off, interval, rec, span)
		})
		rec.end(span)
	}
	// closedRound runs one closed-loop round and returns its statistics
	// and frame rate.
	closedRound := func(rec *recorder) ([]*connStats, float64) {
		span := rec.begin("ingest.closed", -1)
		round := make([]*connStats, conns)
		start := time.Now()
		runConns(conns, func(c int) {
			round[c] = &connStats{}
			ics[c].order.startPass()
			ics[c].runClosed(passesPerRound*len(plan.devices[c]), rec, span, round[c])
		})
		wall := time.Since(start).Seconds()
		rec.end(span)
		accepted := 0
		for _, cs := range round {
			accepted += cs.accepted
		}
		return round, float64(accepted) / wall
	}

	// The phases alternate, an open-loop slice then a closed-loop round,
	// so both sample the whole run rather than one part of it.
	// Each closed round runs between two reference kernel samples and is
	// recorded as the time to ack ingestWorkFrames frames at its rate.
	var closedStats []*connStats
	var closedRates []float64
	echo, err := newEchoKernel(conns)
	if err != nil {
		return err
	}
	work := echo.timer()
	var peaks []float64 // per slice and round
	for r := 0; r < ingestRounds; r++ {
		openSlice(r)
		err := work.time(func() (float64, error) {
			stats, rate := closedRound(nil)
			closedStats = append(closedStats, stats...)
			closedRates = append(closedRates, rate)
			return ingestWorkFrames / rate, nil
		})
		if err != nil {
			return errors.Join(err, echo.close())
		}
		peaks = append(peaks, heap.lapMB())
	}
	if err := echo.close(); err != nil {
		return err
	}
	// A traced run replays as many closed rounds again with spans on.
	var tracedStats []*connStats
	var tracedRates []float64
	if cfg.traced {
		for r := 0; r < ingestRounds; r++ {
			stats, rate := closedRound(rec)
			tracedStats = append(tracedStats, stats...)
			tracedRates = append(tracedRates, rate)
		}
	}
	heap.stopMB()

	var lat, late, sess, bye []float64
	var win []int
	openStats := make([]*connStats, conns)
	for c, ic := range ics {
		cs := ic.stats
		openStats[c] = cs
		lat = append(lat, cs.latMS...)
		win = append(win, cs.latWin...)
		late = append(late, cs.lateMS...)
		sess = append(sess, cs.sessionMS...)
		bye = append(bye, cs.byeMS...)
	}
	closedAccepted := 0
	for _, cs := range closedStats {
		closedAccepted += cs.accepted
	}
	all := append(append(append([]*connStats{}, openStats...), closedStats...), tracedStats...)
	for _, cs := range all {
		rep.attempted += int64(cs.attempted)
		rep.failed += int64(cs.failed)
	}

	// Every round replays the same sessions. The gated figure is the
	// median round's time to ack ingestWorkFrames frames, at the reference
	// speed: on a shared host round rates scatter widely within a run
	// (interquartile spreads of 0.07 to 0.21 of the median), and the
	// fastest round is a far noisier statistic than the median.
	rate := median(closedRates)
	rep.add("setup_s", setup.scaled(), "s", len(setup.raw))
	rep.add("wall_s", work.scaled(), "s", len(closedRates))
	rep.add("peak_heap_mb", median(peaks), "MB", len(peaks))
	rep.detail("setup_raw_s", median(setup.raw), "s", len(setup.raw))
	rep.detail("wall_raw_s", median(work.raw), "s", len(closedRates))
	rep.detail("ref_kernel_ms", 1000*median(work.refs), "ms", len(closedRates))
	rep.detail("events_per_s", rate, "1/s", closedAccepted)
	rep.detail("closed.round_spread", relSpread(closedRates), "ratio", len(closedRates))
	rep.detail("wall_s.round_spread", relSpread(work.units()), "ratio", len(closedRates))
	rep.detail("closed.passes_per_round", float64(passesPerRound), "count", 1)
	rounds := "closed-loop rounds (frames/s):"
	for _, r := range closedRates {
		rounds += fmt.Sprintf(" %.0f", r)
	}
	rep.notes = append(rep.notes, rounds)
	w99 := perWindow(lat, win, 0.99)
	// Open-loop latency is printed, not gated: on a shared host it tracks
	// CPU steal far more than the program (see README.md).
	lat = sorted(lat)
	rep.detail("ack_p50_ms", percentileSorted(lat, 0.50), "ms", len(lat))
	rep.detail("ack_p99_ms", median(w99), "ms", len(lat))

	if cfg.traced {
		ingestBreakdown(rep, reg)
		rep.detail("ingest.gen_late_ms.p99", percentile(late, 0.99), "ms", len(late))
		rep.detail("ingest.session_ms.p50", percentile(sess, 0.50), "ms", len(sess))
		rep.detail("ingest.session_ms.p99", percentile(sess, 0.99), "ms", len(sess))
		rep.detail("ingest.bye_ms.p99", percentile(bye, 0.99), "ms", len(bye))
		rep.detail("ingest.ack_p999_ms", percentileSorted(lat, 0.999), "ms", len(lat))
		rep.detail("trace.overhead_s", ingestWorkFrames/median(tracedRates)-ingestWorkFrames/rate, "s", len(tracedRates))
	}

	// Correctness: every frame accepted and accounted, every bye summary
	// equal to the client's totals, and the drained server conserving
	// energy with client and server agreeing on every count.
	if err := errSummary(all); err != nil {
		rep.fail("ingest sessions: %v", err)
	}
	if cfg.traced {
		snap := srv.Snapshot()
		rep.probe = ingestProbeInputs(cfg.seed, res.Cells, &snap)
	}
	dr, err := srv.Drain()
	if err != nil {
		return err
	}
	var wakes, hbs uint64
	for _, devs := range plan.devices {
		for _, d := range devs {
			wakes += d.wakes
			hbs += d.heartbeats
		}
	}
	if !dr.ConservationOK {
		rep.fail("drain: ledger conservation violated (err %.3g mJ)", dr.ConservationErrMJ)
	}
	if dr.Sheds != 0 {
		rep.fail("drain: server shed %d frames", dr.Sheds)
	}
	if dr.Wakes != wakes || dr.Heartbeats != hbs {
		rep.fail("drain: server wakes/heartbeats %d/%d, client accepted %d/%d", dr.Wakes, dr.Heartbeats, wakes, hbs)
	}
	return os.RemoveAll(dir)
}

// ingestProbeInputs are the layer probes' inputs for ingest: the
// population's own traces (the configurations fleetd.BuildPopulation
// uses; ingest has no human trace, so the human probe generates one of
// the same length), its cells, and the server's state after the run. The
// run's seed drives only the adapt probe's verdicts.
func ingestProbeInputs(seed int64, cells []sim.FleetCell, ckpt *fleetd.Checkpoint) *probeInputs {
	const ps = ingestPopulationSeed
	return &probeInputs{
		genRobot: func() (*sensor.Trace, error) {
			return tracegen.Robot(tracegen.RobotConfig{Seed: ps, Duration: ingestTraceDur, IdleFraction: 0.1})
		},
		genAudio: func() (*sensor.Trace, error) {
			return tracegen.Audio(tracegen.NewAudioConfig(ps+2, ingestTraceDur, tracegen.OfficeAudio))
		},
		genHuman: func() (*sensor.Trace, error) {
			return tracegen.Human(tracegen.HumanConfig{Seed: ps, Duration: ingestTraceDur,
				Profile: tracegen.HumanProfiles()[0]})
		},
		cells: cells,
		ckpt:  ckpt,
		seed:  seed,
	}
}

// ingestBreakdown adds the traced run's fleetd metrics from the server's
// own registry.
func ingestBreakdown(rep *report, reg *telemetry.Registry) {
	qd := reg.Histogram("fleetd.queue_delay_ms", nil)
	fb := reg.Histogram("fleetd.flush_batch", nil)
	rep.detail("fleetd.queue_delay_ms.p50", qd.Quantile(0.50), "ms", int(qd.Count()))
	rep.detail("fleetd.queue_delay_ms.p99", qd.Quantile(0.99), "ms", int(qd.Count()))
	if fb.Count() > 0 {
		rep.detail("fleetd.flush_batch_mean", fb.Sum()/float64(fb.Count()), "count", int(fb.Count()))
	}
	rep.detail("fleetd.rx_frames", float64(reg.Counter("fleetd.rx_frames").Value()), "count", 1)
	rep.detail("fleetd.sheds", float64(reg.Counter("fleetd.sheds").Value()), "count", 1)
	rep.detail("fleetd.dedup_acks", float64(reg.Counter("fleetd.dedup_acks").Value()), "count", 1)
}
