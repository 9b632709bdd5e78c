package main

import (
	"strings"
	"testing"
	"time"

	"sidewinder/internal/fleetd"
	"sidewinder/internal/telemetry"
)

func testOpts(addr string) loadOpts {
	return loadOpts{
		addr:        addr,
		devices:     12,
		apps:        2,
		seed:        7,
		traceSec:    2,
		window:      64,
		hbEvery:     25,
		reconnect:   4,
		backoffBase: 5 * time.Millisecond,
		backoffCap:  50 * time.Millisecond,
		ackTimeout:  5 * time.Second,
	}
}

// TestRunAgainstLiveDaemon boots an in-process fleetd server and replays
// a small population at it end to end, in resilient (resume) mode.
func TestRunAgainstLiveDaemon(t *testing.T) {
	s, err := fleetd.NewServer(fleetd.Config{
		Addr:      "127.0.0.1:0",
		Telemetry: telemetry.Set{Ledger: telemetry.NewLedger()},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Drain()

	var out strings.Builder
	if err := run(testOpts(s.Addr()), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, marker := range []string{"events/s", "latency ms:", "mismatches=0",
		"unrecovered=0", "fleetload: summaries verified"} {
		if !strings.Contains(text, marker) {
			t.Fatalf("output missing %q:\n%s", marker, text)
		}
	}

	rep, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rep.ConservationOK {
		t.Fatalf("daemon ledger does not conserve after replay: err %g mJ", rep.ConservationErrMJ)
	}
	if rep.Devices != 12 {
		t.Fatalf("daemon saw %d devices, want 12", rep.Devices)
	}
}

// TestRunSingleConnection: -reconnect 0 gives each device one resumed
// connection, which replays the whole population against a live daemon
// without a redial.
func TestRunSingleConnection(t *testing.T) {
	s, err := fleetd.NewServer(fleetd.Config{
		Addr:      "127.0.0.1:0",
		Telemetry: telemetry.Set{Ledger: telemetry.NewLedger()},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Drain()

	o := testOpts(s.Addr())
	o.devices, o.reconnect = 6, 0
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run (single connection): %v\n%s", err, out.String())
	}
	for _, marker := range []string{"mismatches=0", "reconnects=0", "unrecovered=0",
		"fleetload: summaries verified"} {
		if !strings.Contains(out.String(), marker) {
			t.Fatalf("output missing %q:\n%s", marker, out.String())
		}
	}
}

// TestRunRejectsDeadAddress: no daemon, prompt failure once the
// reconnect budget is exhausted.
func TestRunRejectsDeadAddress(t *testing.T) {
	o := testOpts("127.0.0.1:1")
	o.devices, o.apps, o.traceSec = 2, 1, 1
	o.reconnect = 2
	var out strings.Builder
	if err := run(o, &out); err == nil {
		t.Fatal("run against a dead address should fail")
	}
	if !strings.Contains(out.String(), "unrecovered=2") {
		t.Fatalf("report should count both devices unrecovered:\n%s", out.String())
	}
}
