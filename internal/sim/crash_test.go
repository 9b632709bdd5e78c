package sim

import (
	"math"
	"testing"

	"sidewinder/internal/apps"
	"sidewinder/internal/power"
	"sidewinder/internal/resilience"
	"sidewinder/internal/telemetry"
)

func crashSupervisor() *resilience.SupervisorConfig {
	return &resilience.SupervisorConfig{
		PingIntervalTicks: 8, TimeoutTicks: 8, MissBudget: 3,
		ProbeBackoffTicks: 16, MaxProbeBackoffTicks: 128,
	}
}

// TestCrashRunBaseline: with the injector disabled the supervised replay
// is just the ordinary stack — every oracle wake lands in the hub window,
// nothing falls back, nothing is lost, and every hub wake is delivered.
func TestCrashRunBaseline(t *testing.T) {
	tr := robotTrace(t, 0.5)
	res, err := CrashRun(tr, apps.Steps(), CrashRunConfig{Supervisor: crashSupervisor()})
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleWakes == 0 {
		t.Fatal("trace produced no wakes; test is vacuous")
	}
	if res.HubWindowWakes != res.OracleWakes {
		t.Errorf("hub window holds %d of %d oracle wakes", res.HubWindowWakes, res.OracleWakes)
	}
	if res.FallbackWakes != 0 || res.DetectionWindowWakes != 0 || res.StructurallyLostWakes != 0 {
		t.Errorf("immortal hub produced outage wakes: fallback=%d detection=%d lost=%d",
			res.FallbackWakes, res.DetectionWindowWakes, res.StructurallyLostWakes)
	}
	if res.Crash.Crashes != 0 {
		t.Errorf("disabled injector crashed %d times", res.Crash.Crashes)
	}
	if res.HubWakes == 0 || res.DeliveredWakes != res.HubWakes {
		t.Errorf("delivered %d of %d hub wakes on a clean wire", res.DeliveredWakes, res.HubWakes)
	}
	if res.FallbackEnergyMJ != 0 || res.FallbackSec != 0 {
		t.Errorf("fallback billed without outages: %.3f mJ over %.1f s",
			res.FallbackEnergyMJ, res.FallbackSec)
	}
}

// TestCrashRunWindowPartitionProperty is the conservation law of the wake
// accounting: for any seed, the four timeline windows partition the
// oracle's wakes exactly, a supervised run has zero structural loss, and
// the energy ledger balances against the run total to 1e-9.
func TestCrashRunWindowPartitionProperty(t *testing.T) {
	tr := robotTrace(t, 0.5)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, mode := range []FallbackMode{FallbackAlwaysAwake, FallbackDutyCycle} {
			led := telemetry.NewLedger()
			res, err := CrashRun(tr, apps.Steps(), CrashRunConfig{
				Crash: resilience.CrashProfile{
					Seed: seed, MTBFTicks: 1500, MeanDownTicks: 150, MaxDownTicks: 600,
				},
				Supervisor: crashSupervisor(),
				Fallback:   mode,
				Telemetry:  telemetry.Set{Ledger: led},
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			if res.Crash.Crashes == 0 {
				t.Fatalf("seed %d: no crashes at MTBF 1500 over %d samples", seed, tr.Len())
			}
			sum := res.HubWindowWakes + res.FallbackWakes +
				res.DetectionWindowWakes + res.StructurallyLostWakes
			if sum != res.OracleWakes {
				t.Errorf("seed %d %s: windows sum to %d, oracle fired %d "+
					"(hub=%d fallback=%d detection=%d lost=%d)",
					seed, mode, sum, res.OracleWakes, res.HubWindowWakes,
					res.FallbackWakes, res.DetectionWindowWakes, res.StructurallyLostWakes)
			}
			if res.StructurallyLostWakes != 0 {
				t.Errorf("seed %d %s: supervised run structurally lost %d wakes",
					seed, mode, res.StructurallyLostWakes)
			}
			if res.Supervisor.Detections+res.Supervisor.EpochChanges == 0 {
				t.Errorf("seed %d: crashes happened but nothing was detected: %+v",
					seed, res.Supervisor)
			}

			// Ledger conservation: components sum to the run total.
			if diff := math.Abs(led.TotalMJ() - res.TotalMJ); diff > 1e-9*math.Max(1, res.TotalMJ) {
				t.Errorf("seed %d %s: ledger %.12g mJ != run total %.12g mJ",
					seed, mode, led.TotalMJ(), res.TotalMJ)
			}
			if res.FallbackSec > 0 && led.EnergyMJ(telemetry.PhoneFallback) <= 0 {
				t.Errorf("seed %d %s: %0.f s of fallback but no phone.fallback component",
					seed, mode, res.FallbackSec)
			}
		}
	}
}

// TestCrashRunFallbackModesPrice: duty-cycle fallback must be cheaper per
// second than always-awake fallback, and both must price above the asleep
// draw.
func TestCrashRunFallbackModesPrice(t *testing.T) {
	p := power.Nexus4()
	aa := fallbackAvgMW(FallbackAlwaysAwake, p)
	dc := fallbackAvgMW(FallbackDutyCycle, p)
	if dc >= aa {
		t.Errorf("duty-cycle fallback %.1f mW >= always-awake %.1f mW", dc, aa)
	}
	if dc <= p.AsleepMW {
		t.Errorf("duty-cycle fallback %.1f mW <= asleep draw %.1f mW", dc, p.AsleepMW)
	}
}

// TestCrashRunUnsupervisedLoss documents the failure the supervisor
// prevents: with crashes but no supervision, a state-losing reset empties
// the hub forever and wakes are structurally lost.
func TestCrashRunUnsupervisedLoss(t *testing.T) {
	tr := robotTrace(t, 0.5)
	res, err := CrashRun(tr, apps.Steps(), CrashRunConfig{
		Crash: resilience.CrashProfile{
			Seed: 3, MTBFTicks: 1500, MeanDownTicks: 100, MaxDownTicks: 400,
			ResetWeight: 1, // only state-losing crashes
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crash.Crashes == 0 {
		t.Fatal("no crashes; test is vacuous")
	}
	if res.FallbackWakes != 0 {
		t.Errorf("unsupervised run claims %d fallback wakes", res.FallbackWakes)
	}
	if res.StructurallyLostWakes == 0 {
		t.Error("unsupervised reset lost nothing — the supervisor would be pointless")
	}
	sum := res.HubWindowWakes + res.FallbackWakes +
		res.DetectionWindowWakes + res.StructurallyLostWakes
	if sum != res.OracleWakes {
		t.Errorf("windows sum to %d, oracle fired %d", sum, res.OracleWakes)
	}
}
