package sim

import (
	"testing"
	"time"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/resilience"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

// BenchmarkReplay runs two hub-driven strategies over one seeded 2-minute
// audio trace, pinning the replay path's allocations (make bench-check):
// Sidewinder with the music condition, which feeds the interpreter block
// by block, and predefined activity, whose significance detector lists its
// firings itself. Both replay their fire lists through replayHub.
func BenchmarkReplay(b *testing.B) {
	tr, err := tracegen.Audio(tracegen.NewAudioConfig(1, 2*time.Minute, tracegen.OfficeAudio))
	if err != nil {
		b.Fatal(err)
	}
	app := apps.MusicJournal()
	for _, s := range []Strategy{
		Sidewinder{},
		PredefinedActivity{Kind: SignificantSound, Threshold: 0.005},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Run(tr, app)
				if err != nil {
					b.Fatal(err)
				}
				if res.Power.WakeUps == 0 {
					b.Fatal("no wake-ups: the benchmark replays nothing")
				}
			}
		})
	}
}

// BenchmarkFleetSweep runs the fleet experiment's shape, four app mixes
// (1, 2, 4 and 6 apps) of 16 phones each in one sweep, over seeded 2-minute
// robot, commute and office-audio traces at one worker, pinning the
// sweep's allocations (make bench-check). Every op builds a fresh memo, so
// each op replays the same distinct (trace, admitted set) keys.
func BenchmarkFleetSweep(b *testing.B) {
	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 1, Duration: 2 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	human, err := tracegen.Human(tracegen.HumanConfig{Seed: 2, Duration: 2 * time.Minute, Profile: tracegen.Commute})
	if err != nil {
		b.Fatal(err)
	}
	audio, err := tracegen.Audio(tracegen.NewAudioConfig(3, 2*time.Minute, tracegen.OfficeAudio))
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []FleetRunConfig
	for i, m := range []int{1, 2, 4, 6} {
		cfgs = append(cfgs, FleetRunConfig{
			Devices: 16, AppsPerDevice: m, Seed: 1 + int64(i)*0x5EED, Workers: 1,
			Accel: []*sensor.Trace{robot, human}, Audio: []*sensor.Trace{audio},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := FleetSweep(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if res[3].Admitted == 0 {
			b.Fatal("nothing admitted: the benchmark replays nothing")
		}
	}
}

// BenchmarkAdaptiveArms runs the adaptive experiment's two Sidewinder arms
// over a seeded 2-minute office-audio trace with the siren condition and a
// 2-minute robot trace with the step condition, pinning the shared-pass
// path's allocations (make bench-check). Every op takes a fresh pair of
// arms from AdaptiveArms, so each op runs one hub pass per trace.
func BenchmarkAdaptiveArms(b *testing.B) {
	audio, err := tracegen.Audio(tracegen.NewAudioConfig(1, 2*time.Minute, tracegen.OfficeAudio))
	if err != nil {
		b.Fatal(err)
	}
	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 1, Duration: 2 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := adapt.DefaultConfig()
	cfg.Patience = 3
	cfg.Cooldown = 6
	combos := []struct {
		tr  *sensor.Trace
		app *apps.App
	}{{audio, apps.Sirens()}, {robot, apps.Steps()}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		static, adaptive := AdaptiveArms(cfg)
		for _, c := range combos {
			for _, arm := range []AdaptiveSidewinder{static, adaptive} {
				res, err := arm.Run(c.tr, c.app)
				if err != nil {
					b.Fatal(err)
				}
				if res.Power.WakeUps == 0 {
					b.Fatal("no wake-ups: the benchmark replays nothing")
				}
			}
		}
	}
}

// BenchmarkCrashRun replays one cell of the crash experiment's shape: the
// steps condition over a seeded 2-minute robot run through the full
// manager/ARQ/hub testbed, with the hub failing every 30 s on average (5 s
// mean outages) under a supervisor that pings every 8 samples and falls
// back to duty cycling. It pins the testbed data path's allocations (make
// bench-check): link frames, acks, heartbeats, data buffers and recovery
// re-pushes.
func BenchmarkCrashRun(b *testing.B) {
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 1, Duration: 2 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := CrashRunConfig{
		Crash: resilience.CrashProfile{
			Seed: 0xC5A5, MTBFTicks: 30 * tr.RateHz,
			MeanDownTicks: 5 * tr.RateHz, MaxDownTicks: int(20 * tr.RateHz),
		},
		Supervisor: crashSupervisor(),
		Fallback:   FallbackDutyCycle,
	}
	app := apps.Steps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := CrashRun(tr, app, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crash.Crashes == 0 || res.DeliveredWakes == 0 {
			b.Fatal("no crash or no delivered wake: the benchmark exercises nothing")
		}
	}
}
