// Command fleetload replays a seeded fleet population against a running
// sidewinderd over loopback (or any network) and reports sustained
// ingest throughput and latency quantiles.
//
// Usage:
//
//	fleetload -addr 127.0.0.1:7473 -devices 1000 -apps 2 -seed 42
//
// Every device of the population is one concurrent TCP session sending
// its wake events, heartbeats and exact energy split as protocol frames;
// the bye handshake cross-checks the server's per-device totals against
// what the client saw acknowledged, bit for bit.
//
// Every connection opens with a resume handshake, and sessions ride
// through connection resets, cuts, stalls and partitions: each device
// redials with capped exponential backoff and gives up only after
// -reconnect N (default 8) consecutive attempts without progress. The
// exit status is non-zero only on unrecovered devices or summary
// mismatches — transient connection errors that the resume protocol
// absorbed are reported as counts, not failures. -reconnect 0 gives each
// device one connection, and any connection error is fatal for it.
//
// The bitwise check assumes the daemon holds no prior state for the
// population's device IDs (1..devices): replaying into a daemon that
// already ingested those IDs — including a restart from a checkpoint —
// reports every carried-over total as a mismatch. Point repeat runs at a
// fresh daemon.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sidewinder/internal/fleetd"
)

// loadOpts carries the flag surface into run.
type loadOpts struct {
	addr        string
	devices     int
	apps        int
	seed        int64
	traceSec    float64
	window      int
	hbEvery     int
	concurrency int
	reconnect   int
	backoffBase time.Duration
	backoffCap  time.Duration
	ackTimeout  time.Duration
	pace        time.Duration
}

func main() {
	var o loadOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7473", "sidewinderd ingest address")
	flag.IntVar(&o.devices, "devices", 1000, "population size (concurrent device sessions)")
	flag.IntVar(&o.apps, "apps", 2, "apps per device")
	flag.Int64Var(&o.seed, "seed", 42, "population seed (same seed, same population)")
	flag.Float64Var(&o.traceSec, "trace-seconds", 10, "sensor trace length per cell")
	flag.IntVar(&o.window, "window", 64, "in-flight unacked frames per device")
	flag.IntVar(&o.hbEvery, "hb-every", 25, "heartbeat per this many wake frames")
	flag.IntVar(&o.concurrency, "concurrency", 0, "max simultaneous sessions (0: whole population)")
	flag.IntVar(&o.reconnect, "reconnect", 8,
		"max consecutive no-progress reconnects per device before giving up (0: one connection per device)")
	flag.DurationVar(&o.backoffBase, "backoff-base", 25*time.Millisecond, "initial reconnect backoff")
	flag.DurationVar(&o.backoffCap, "backoff-cap", time.Second, "reconnect backoff ceiling")
	flag.DurationVar(&o.ackTimeout, "ack-timeout", 10*time.Second,
		"per-read/write socket deadline (a stalled server becomes a reconnect)")
	flag.DurationVar(&o.pace, "pace", 0,
		"per-device delay between frame sends (0: full blast; set to stretch a soak over wall-clock time)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetload:", err)
		os.Exit(1)
	}
}

func run(o loadOpts, out io.Writer) error {
	buildStart := time.Now()
	res, batchLedger, err := fleetd.BuildPopulation(o.devices, o.apps, o.seed,
		time.Duration(o.traceSec*float64(time.Second)), 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleetload: population: %d devices x %d apps (seed %d) built in %.2fs, batch ledger %.6f mJ\n",
		o.devices, o.apps, o.seed, time.Since(buildStart).Seconds(), batchLedger.TotalMJ())

	rep, err := fleetd.RunLoad(fleetd.LoadConfig{
		Addr:           o.addr,
		Window:         o.window,
		HeartbeatEvery: o.hbEvery,
		Concurrency:    o.concurrency,
		Reconnect:      o.reconnect,
		BackoffBase:    o.backoffBase,
		BackoffCap:     o.backoffCap,
		AckTimeout:     o.ackTimeout,
		Pace:           o.pace,
	}, res.Cells)
	if rep != nil {
		fmt.Fprintf(out, "fleetload: replayed %d frames from %d devices in %.2fs: %.0f events/s\n",
			rep.Frames, rep.Devices, rep.DurationSec, rep.EventsPerSec)
		fmt.Fprintf(out, "fleetload: latency ms: p50=%.3f p99=%.3f p99.9=%.3f\n",
			rep.P50ms, rep.P99ms, rep.P999ms)
		fmt.Fprintf(out, "fleetload: accepted=%d shed=%d mismatches=%d\n",
			rep.Accepted, rep.Shed, rep.Mismatches)
		fmt.Fprintf(out, "fleetload: reconnects=%d resumed=%d dup-acks=%d unrecovered=%d\n",
			rep.Reconnects, rep.Resumed, rep.DupAcks, rep.Unrecovered)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "fleetload: summaries verified")
	return nil
}
