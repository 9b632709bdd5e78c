package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sidewinder/internal/interp"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// fleetTraces builds one small accel and one small audio trace pool.
func fleetTraces(t *testing.T) (accel, audio []*sensor.Trace) {
	t.Helper()
	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: time.Minute, IdleFraction: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	human, err := tracegen.Human(tracegen.HumanConfig{Seed: 5, Duration: time.Minute, Profile: tracegen.Commute})
	if err != nil {
		t.Fatal(err)
	}
	office, err := tracegen.Audio(tracegen.NewAudioConfig(7, 20*time.Second, tracegen.OfficeAudio))
	if err != nil {
		t.Fatal(err)
	}
	return []*sensor.Trace{robot, human}, []*sensor.Trace{office}
}

func TestFleetRunDeterministicAcrossWorkers(t *testing.T) {
	accel, audio := fleetTraces(t)
	cfg := FleetRunConfig{
		Devices: 10, AppsPerDevice: 4, Seed: 42,
		Accel: accel, Audio: audio,
	}
	cfg.Workers = 1
	serial, err := FleetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := FleetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fleet results differ across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.Conditions != cfg.Devices*cfg.AppsPerDevice {
		t.Errorf("conditions = %d, want %d", serial.Conditions, cfg.Devices*cfg.AppsPerDevice)
	}
	if serial.Admitted+serial.Degraded != serial.Conditions {
		t.Errorf("admitted %d + degraded %d != conditions %d",
			serial.Admitted, serial.Degraded, serial.Conditions)
	}
}

func TestFleetRunSeedChangesPopulation(t *testing.T) {
	accel, audio := fleetTraces(t)
	cfg := FleetRunConfig{Devices: 10, AppsPerDevice: 3, Seed: 1, Workers: 1, Accel: accel, Audio: audio}
	a, err := FleetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := FleetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("different seeds drew identical populations")
	}
}

// TestFleetLedgerConservation: with telemetry attached, the ledger's
// total must equal the sum of per-cell energies, and the phone.fallback
// component must carry exactly the degraded conditions' duty-cycle draw.
func TestFleetLedgerConservation(t *testing.T) {
	accel, audio := fleetTraces(t)
	set := telemetry.Set{Ledger: telemetry.NewLedger()}
	// M=6 over three audio apps makes all-three-distinct draws likely,
	// and all three audio conditions together overflow the LM4F120's RAM,
	// so the population contains degraded conditions.
	res, err := FleetRun(FleetRunConfig{
		Devices: 12, AppsPerDevice: 6, Seed: 9, Workers: 4,
		Accel: accel, Audio: audio, Telemetry: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("population has no degraded conditions; conservation check is vacuous")
	}
	var wantTotal, wantFallback float64
	for _, c := range res.Cells {
		wantTotal += c.TotalMJ
		wantFallback += c.FallbackEnergyMJ
	}
	snap := set.Ledger.Snapshot()
	if math.Abs(snap.TotalMJ-wantTotal) > 1e-9 {
		t.Errorf("ledger total %.12f mJ != summed cells %.12f mJ", snap.TotalMJ, wantTotal)
	}
	gotFallback := snap.EnergyMJ[telemetry.PhoneFallback.String()]
	if math.Abs(gotFallback-wantFallback) > 1e-9 {
		t.Errorf("ledger phone.fallback %.12f mJ != summed cells %.12f mJ", gotFallback, wantFallback)
	}
	if wantFallback <= 0 {
		t.Error("degraded conditions billed no fallback energy")
	}
}

// TestFleetPlacementInvariants checks each cell's placement story: accel
// mixes always fit (usually on the MSP430), a degraded cell sits on the
// most capable device, and a cell degrades only if its distinct app count
// genuinely overflows every device.
func TestFleetPlacementInvariants(t *testing.T) {
	accel, audio := fleetTraces(t)
	res, err := FleetRun(FleetRunConfig{
		Devices: 16, AppsPerDevice: 6, Seed: 11, Workers: 4,
		Accel: accel, Audio: audio,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawAccel, sawAudio bool
	for i, c := range res.Cells {
		switch c.Modality {
		case "accel":
			sawAccel = true
			if c.Degraded != 0 {
				t.Errorf("cell %d: accel mix degraded %d conditions", i, c.Degraded)
			}
		case "audio":
			sawAudio = true
			if c.Device == "MSP430" && c.Degraded != 0 {
				t.Errorf("cell %d: degraded on MSP430 — ladder should have tried LM4F120", i)
			}
		default:
			t.Fatalf("cell %d: unknown modality %q", i, c.Modality)
		}
		if c.CycleFrac > 1 || c.RAMFrac > 1 {
			t.Errorf("cell %d: admitted set exceeds budget (%.2f cycles, %.2f RAM)", i, c.CycleFrac, c.RAMFrac)
		}
		if c.Admitted+c.Degraded != len(c.Apps) {
			t.Errorf("cell %d: %d+%d placed != %d drawn", i, c.Admitted, c.Degraded, len(c.Apps))
		}
		if c.Admitted > 0 && c.HubEnergyMJ <= 0 {
			t.Errorf("cell %d: hub hosts conditions but drew no energy", i)
		}
		if c.Degraded > 0 && c.FallbackEnergyMJ <= 0 {
			t.Errorf("cell %d: degraded conditions but no fallback energy", i)
		}
	}
	if !sawAccel || !sawAudio {
		t.Errorf("population missed a modality (accel=%v audio=%v)", sawAccel, sawAudio)
	}
}

func TestFleetRunErrors(t *testing.T) {
	accel, _ := fleetTraces(t)
	if _, err := (FleetRun(FleetRunConfig{Devices: 0, AppsPerDevice: 1, Accel: accel})); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := (FleetRun(FleetRunConfig{Devices: 1, AppsPerDevice: 0, Accel: accel})); err == nil {
		t.Error("zero app mix accepted")
	}
	if _, err := (FleetRun(FleetRunConfig{Devices: 1, AppsPerDevice: 1})); err == nil {
		t.Error("empty trace pools accepted")
	}
	if _, err := FleetSweep(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	one := FleetRunConfig{Devices: 1, AppsPerDevice: 1, Accel: accel}
	q15 := one
	q15.Precision = interp.Q15
	if _, err := FleetSweep([]FleetRunConfig{one, q15}); err == nil {
		t.Error("sweep accepted populations of different precision")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := quantile(v, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := quantile(v, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
}

// TestFleetCellPhoneStateSplit pins the per-state phone energy split the
// fleet daemon's streaming replay depends on: the four entries sum to
// PhoneEnergyMJ exactly, and depositing a cell via DepositEnergy puts
// precisely TotalMJ on a ledger.
func TestFleetCellPhoneStateSplit(t *testing.T) {
	accel, audio := fleetTraces(t)
	res, err := FleetRun(FleetRunConfig{
		Devices: 8, AppsPerDevice: 3, Seed: 9,
		Accel: accel, Audio: audio,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		var sum float64
		for _, v := range c.PhoneStateMJ {
			sum += v
		}
		if math.Abs(sum-c.PhoneEnergyMJ) > 1e-9 {
			t.Errorf("cell %d: state split sums to %g, PhoneEnergyMJ %g", i, sum, c.PhoneEnergyMJ)
		}
		led := telemetry.NewLedger()
		c.DepositEnergy(led)
		if math.Abs(led.TotalMJ()-c.TotalMJ) > 1e-9 {
			t.Errorf("cell %d: DepositEnergy total %g, cell TotalMJ %g", i, led.TotalMJ(), c.TotalMJ)
		}
	}
}
