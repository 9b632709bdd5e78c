package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

// catalogFingerprint renders every entry of cat: its address, every data
// field, and the code address of every model function, so any write
// through a *Meta the catalog hands out changes the result.
func catalogFingerprint(cat *core.Catalog) string {
	var b strings.Builder
	for _, k := range cat.Kinds() {
		m, err := cat.Get(k)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%p %q %q %d %d %d %d %#v", m, m.Kind, m.Summary,
			m.MinInputs, m.MaxInputs, m.In, m.Out, m.Params)
		for _, fn := range []any{m.OutLen, m.Cost, m.Memory, m.RateFactor} {
			fmt.Fprintf(&b, " %x", reflect.ValueOf(fn).Pointer())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSharedCatalogUnchangedByRuns: core.DefaultCatalog is built once and
// shared by every hub, manager and fleet compile, so a fleet sweep and a
// crash replay (which binds and re-provisions through the manager and hub
// node) must leave it exactly as they found it.
func TestSharedCatalogUnchangedByRuns(t *testing.T) {
	cat := core.DefaultCatalog()
	if core.DefaultCatalog() != cat {
		t.Fatal("DefaultCatalog returned two different catalogs")
	}
	before := catalogFingerprint(cat)

	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 1, Duration: 2 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	audio, err := tracegen.Audio(tracegen.NewAudioConfig(3, 2*time.Minute, tracegen.OfficeAudio))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FleetSweep([]FleetRunConfig{{
		Devices: 8, AppsPerDevice: 4, Seed: 1, Workers: 2,
		Accel: []*sensor.Trace{robot}, Audio: []*sensor.Trace{audio},
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := CrashRun(robot, apps.Steps(), CrashRunConfig{
		Crash:      resilience.CrashProfile{Seed: 2, MTBFTicks: 1500, MeanDownTicks: 150, MaxDownTicks: 600},
		Supervisor: crashSupervisor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reprovision.Frames == 0 {
		t.Fatal("no condition was re-provisioned; the crash leg is vacuous")
	}

	was, now := strings.Split(before, "\n"), strings.Split(catalogFingerprint(cat), "\n")
	for i := range was {
		if was[i] != now[i] {
			t.Errorf("the shared catalog changed during the runs:\nbefore: %s\nafter:  %s", was[i], now[i])
		}
	}
}
