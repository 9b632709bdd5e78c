package hub

import (
	"errors"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

func plan(t *testing.T, p *core.Pipeline) *core.Plan {
	t.Helper()
	pl, err := p.Validate(core.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func accelPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("sig-motion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(15))
	return plan(t, p)
}

func sirenPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("siren")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(750, 512)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThresholdSustained(4, 3)))
	return plan(t, p)
}

func musicPlan(t *testing.T) *core.Plan {
	p := core.NewPipeline("music")
	p.AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(512, 0, "")).Add(core.Stat("variance")).Add(core.MinThreshold(0.01)),
		core.NewBranch(core.Mic).Add(core.Window(512, 0, "")).Add(core.ZCRVariance(8)).Add(core.BandThreshold(1e-4, 0.01)),
	)
	p.Add(core.And())
	return plan(t, p)
}

func TestAccelConditionFitsMSP430(t *testing.T) {
	d := MSP430()
	pl := accelPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		t.Fatalf("accel condition should fit MSP430: %v (util %.4f)", err, d.Utilization(pl))
	}
	if u := d.Utilization(pl); u <= 0 || u > 0.01 {
		t.Errorf("accel utilization on MSP430 = %f, want tiny but positive", u)
	}
}

func TestSirenConditionRejectedByMSP430(t *testing.T) {
	// Reproduces the paper's §4 observation: the MSP430 "was unable to
	// run the FFT-based low-pass filter in real-time".
	err := MSP430().CheckFeasible(sirenPlan(t))
	if !errors.Is(err, ErrNotRealTime) {
		t.Fatalf("expected ErrNotRealTime, got %v", err)
	}
}

func TestSirenConditionFitsLM4F120(t *testing.T) {
	d := LM4F120()
	pl := sirenPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		t.Fatalf("siren condition should fit LM4F120: %v (util %.4f)", err, d.Utilization(pl))
	}
}

func TestMusicConditionFitsMSP430(t *testing.T) {
	// Table 2 attributes the MSP430's power to music and phrase
	// detection: their windowed time-domain features avoid the FFT.
	d := MSP430()
	pl := musicPlan(t)
	if err := d.CheckFeasible(pl); err != nil {
		_, _, mem := ir.Demand(ir.NoOpt(), pl)
		t.Fatalf("music condition should fit MSP430: %v (util %.4f, mem %d)",
			err, d.Utilization(pl), mem)
	}
}

func TestSelectDevicePicksLowestPowerFeasible(t *testing.T) {
	d, err := SelectDevice(Devices(), accelPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MSP430" {
		t.Errorf("accel condition placed on %s, want MSP430", d.Name)
	}
	d, err = SelectDevice(Devices(), sirenPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "LM4F120" {
		t.Errorf("siren condition placed on %s, want LM4F120", d.Name)
	}
}

func TestSelectDeviceConcurrentConditions(t *testing.T) {
	// Multiple accel conditions still fit the MSP430 together.
	a, b := accelPlan(t), accelPlan(t)
	d, err := SelectDevice(Devices(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MSP430" {
		t.Errorf("two accel conditions placed on %s, want MSP430", d.Name)
	}
	// Adding the siren forces the upgrade.
	d, err = SelectDevice(Devices(), a, sirenPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "LM4F120" {
		t.Errorf("accel+siren placed on %s, want LM4F120", d.Name)
	}
}

func TestSelectDeviceErrors(t *testing.T) {
	if _, err := SelectDevice(Devices()); err == nil {
		t.Error("no plans should fail")
	}
	if _, err := SelectDevice(nil, accelPlan(t)); err == nil {
		t.Error("no candidates should fail")
	}
	// A plan too big for everything.
	big := plan(t, core.NewPipeline("big").AddBranch(
		core.NewBranch(core.Mic).Add(core.Window(1<<18, 0, "")).Add(core.Stat("median")).Add(core.MinThreshold(0))))
	_, err := SelectDevice(Devices(), big)
	if err == nil {
		t.Fatal("giant plan should not place anywhere")
	}
}

func TestOutOfMemoryDetected(t *testing.T) {
	big := plan(t, core.NewPipeline("big").AddBranch(
		core.NewBranch(core.AccelX).Add(core.Window(1<<14, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(0))))
	err := MSP430().CheckFeasible(big)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestDevicePowerOrdering(t *testing.T) {
	devs := Devices()
	for i := 1; i < len(devs); i++ {
		if devs[i-1].ActivePowerMW >= devs[i].ActivePowerMW {
			t.Errorf("device ladder not in increasing power order: %s >= %s",
				devs[i-1].Name, devs[i].Name)
		}
	}
	if MSP430().ActivePowerMW != 3.6 || LM4F120().ActivePowerMW != 49.4 {
		t.Error("paper power constants wrong")
	}
}

func TestUtilizationZeroClock(t *testing.T) {
	d := Device{}
	if d.Utilization(accelPlan(t)) != 0 {
		t.Error("zero-clock device should report zero utilization")
	}
}

// TestErrorTexts pins the exact wording of every feasibility error: the
// CLIs print them verbatim (swc -report, hubemu -device), so a change to
// how demand is priced must not move a byte of them.
func TestErrorTexts(t *testing.T) {
	big := plan(t, core.NewPipeline("big").AddBranch(
		core.NewBranch(core.AccelX).Add(core.Window(1<<14, 0, "")).Add(core.Stat("mean")).Add(core.MinThreshold(0))))
	sirens := make([]*core.Plan, 12)
	for i := range sirens {
		sirens[i] = sirenPlan(t)
	}
	selectErr := func(_ Device, err error) error { return err }
	for _, tc := range []struct {
		err  error
		want string
	}{
		{MSP430().CheckFeasible(sirenPlan(t)),
			`hub: condition cannot run in real time on this device: "siren" needs 58.02 Mcycles/s, MSP430 provides 8.00 Mcycles/s`},
		{MSP430().CheckFeasible(big),
			`hub: condition does not fit in device RAM: "big" needs 65648 B, MSP430 has 16384 B`},
		{selectErr(SelectDevice(Devices(), sirens...)),
			`hub: no device can run the condition set: hub: condition cannot run in real time on this device: combined demand 696.20 Mcycles/s exceeds MSP430 budget 8.00 Mcycles/s`},
		{selectErr(SelectDevice([]Device{MSP430()}, big, accelPlan(t))),
			`hub: no device can run the condition set: hub: condition does not fit in device RAM: combined state 65864 B exceeds MSP430 RAM 16384 B`},
		{selectErr(SelectDevice(Devices())), `hub: no plans to place`},
		{selectErr(SelectDevice(nil, accelPlan(t))),
			`hub: no device can run the condition set: hub: no candidate devices`},
		{MSP430().CheckDemand(1e6, 5, 10),
			`hub: condition cannot run in real time on this device: demand 100.00 Mcycles/s exceeds MSP430 budget 8.00 Mcycles/s`},
		{MSP430().CheckDemand(1, 5, 1<<20),
			`hub: condition does not fit in device RAM: state 1048576 B exceeds MSP430 RAM 16384 B`},
		{selectErr(SelectDeviceForDemand(Devices(), 1e8, 3, 1)),
			`hub: no device can satisfy the demand: hub: condition cannot run in real time on this device: demand 10000.00 Mcycles/s exceeds MSP430 budget 8.00 Mcycles/s`},
		{selectErr(SelectDeviceForDemand(nil, 1e8, 3, 1)),
			`hub: no device can satisfy the demand: hub: no candidate devices`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error text = %v\nwant %s", tc.err, tc.want)
		}
	}
}

// TestCyclesAndFits pins the one cost model: Cycles applies the
// per-operation costs, CycleBudget is the clock after the utilization
// reservation, and Fits admits a demand exactly up to both limits.
func TestCyclesAndFits(t *testing.T) {
	d := MSP430()
	if got := d.Cycles(3, 5); got != 3*100+5*2 {
		t.Errorf("MSP430 cycles for 3 float + 5 int ops = %g, want 310", got)
	}
	if got := d.CycleBudget(); got != 8e6 {
		t.Errorf("MSP430 cycle budget = %g, want 8e6", got)
	}
	if !d.Fits(8e6/100, 0, d.RAMBytes) {
		t.Error("a demand exactly at both limits must fit")
	}
	if d.Fits(8e6/100, 1, 0) || d.Fits(0, 0, d.RAMBytes+1) {
		t.Error("a demand over either limit must not fit")
	}
}
