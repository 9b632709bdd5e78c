// Package hub models the low-power sensor-hub hardware (paper §3.4, §4):
// microcontroller devices with clock, per-operation cycle costs, RAM and
// power draw, plus the real-time/memory feasibility checks the platform
// runs before accepting a wake-up condition.
//
// The two devices of the prototype are modeled:
//
//   - TI MSP430: extremely low power (3.6 mW awake) but no hardware FPU, so
//     floating-point work is software-emulated at ~100 cycles per
//     operation. The paper observed it "was unable to run the FFT-based
//     low-pass filter in real-time"; the cost model reproduces exactly
//     that: FFT-based stages at audio rates exceed its cycle budget.
//
//   - TI LM4F120 (Cortex-M4F): an order of magnitude more power
//     (49.4 mW awake) but hardware floating point, making every prototype
//     pipeline feasible.
package hub

import (
	"errors"
	"fmt"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// ErrNotRealTime is returned when a wake-up condition demands more cycles
// per second than the device can supply.
var ErrNotRealTime = errors.New("hub: condition cannot run in real time on this device")

// ErrOutOfMemory is returned when a wake-up condition's instance state does
// not fit the device's RAM.
var ErrOutOfMemory = errors.New("hub: condition does not fit in device RAM")

// Device is a sensor-hub microcontroller model.
type Device struct {
	// Name identifies the device in reports ("MSP430", "LM4F120").
	Name string
	// ClockHz is the core clock.
	ClockHz float64
	// CyclesPerFloatOp and CyclesPerIntOp convert the catalog's abstract
	// cost units into cycles. Software float emulation makes the former
	// large on FPU-less parts.
	CyclesPerFloatOp float64
	CyclesPerIntOp   float64
	// MaxUtilization is the fraction of cycles available to wake-up
	// conditions; the rest is reserved for sampling, the interpreter
	// loop, and link handling.
	MaxUtilization float64
	// RAMBytes is the memory available for algorithm instance state.
	RAMBytes int
	// ActivePowerMW is the measured draw while the hub runs continuously
	// (paper §4: MSP430 3.6 mW, LM4F120 49.4 mW).
	ActivePowerMW float64
}

// MSP430 returns the model of the TI MSP430 used by the prototype.
func MSP430() Device {
	return Device{
		Name:             "MSP430",
		ClockHz:          16e6,
		CyclesPerFloatOp: 100, // software floating point
		CyclesPerIntOp:   2,
		MaxUtilization:   0.5,
		RAMBytes:         16 << 10,
		ActivePowerMW:    3.6,
	}
}

// LM4F120 returns the model of the TI LM4F120 (Cortex-M4F) used by the
// prototype for FFT-heavy conditions.
func LM4F120() Device {
	return Device{
		Name:             "LM4F120",
		ClockHz:          80e6,
		CyclesPerFloatOp: 3, // hardware FPU
		CyclesPerIntOp:   1,
		MaxUtilization:   0.5,
		RAMBytes:         32 << 10,
		ActivePowerMW:    49.4,
	}
}

// Devices returns the prototype's device ladder in increasing power order,
// the order SelectDevice prefers.
func Devices() []Device {
	return []Device{MSP430(), LM4F120()}
}

// Cycles converts an operation demand into cycles per second on the
// device. It is the only place the per-operation cycle costs apply: every
// price in ops (package ir) becomes cycles here.
func (d Device) Cycles(floatOpsPerSec, intOpsPerSec float64) float64 {
	return floatOpsPerSec*d.CyclesPerFloatOp + intOpsPerSec*d.CyclesPerIntOp
}

// CycleBudget returns the cycles per second available to wake-up
// conditions: the clock after the MaxUtilization reservation.
func (d Device) CycleBudget() float64 { return d.ClockHz * d.MaxUtilization }

// Fits reports whether a demand fits the device's cycle budget and RAM.
func (d Device) Fits(floatOpsPerSec, intOpsPerSec float64, memoryBytes int) bool {
	return d.Cycles(floatOpsPerSec, intOpsPerSec) <= d.CycleBudget() && memoryBytes <= d.RAMBytes
}

// Utilization returns the plan's cycle demand as a fraction of the
// device's total clock.
func (d Device) Utilization(plan *core.Plan) float64 {
	if d.ClockHz == 0 {
		return 0
	}
	f, i, _ := ir.Demand(ir.NoOpt(), plan)
	return d.Cycles(f, i) / d.ClockHz
}

// IdleFraction is the share of a device's active draw that does not scale
// with compute load: sleep clocks, SRAM retention, the sampling front-end
// and the interpreter's idle loop. The remainder scales linearly with duty
// cycle (race-to-sleep between samples). ActivePowerMW remains the
// measured worst case; LoadPowerMW refines it for load-sensitive billing.
const IdleFraction = 0.30

// LoadPowerMW returns the device's draw at the given operation demand:
// the idle floor plus a dynamic share proportional to duty cycle (demand
// over the device's usable cycle budget, clamped to 1). At full budget it
// equals ActivePowerMW, so static billing is the upper bound.
func (d Device) LoadPowerMW(floatOpsPerSec, intOpsPerSec float64) float64 {
	budget := d.CycleBudget()
	if budget <= 0 {
		return d.ActivePowerMW
	}
	duty := d.Cycles(floatOpsPerSec, intOpsPerSec) / budget
	if duty > 1 {
		duty = 1
	}
	return d.ActivePowerMW * (IdleFraction + (1-IdleFraction)*duty)
}

// CheckFeasible verifies the plan fits the device's real-time budget and
// RAM. The returned error wraps ErrNotRealTime or ErrOutOfMemory.
func (d Device) CheckFeasible(plan *core.Plan) error {
	f, i, mem := ir.Demand(ir.NoOpt(), plan)
	return d.check(f, i, mem, plan, "")
}

// CheckDemand verifies a raw resource demand (operations per second and
// instance memory) against the device. It lets callers that deduplicate
// work across conditions — the DAG demand model of package ir —
// place sets more tightly than per-plan sums allow.
func (d Device) CheckDemand(floatOpsPerSec, intOpsPerSec float64, memoryBytes int) error {
	return d.check(floatOpsPerSec, intOpsPerSec, memoryBytes, nil, "")
}

// check is the one feasibility verdict with its error text. A demand that
// belongs to a single plan names it; an anonymous one is described as
// "<qualifier>demand" and "<qualifier>state".
func (d Device) check(floatOpsPerSec, intOpsPerSec float64, memoryBytes int, plan *core.Plan, qualifier string) error {
	cycles, budget := d.Cycles(floatOpsPerSec, intOpsPerSec), d.CycleBudget()
	switch {
	case cycles > budget && plan != nil:
		return fmt.Errorf("%w: %q needs %.2f Mcycles/s, %s provides %.2f Mcycles/s",
			ErrNotRealTime, plan.Name, cycles/1e6, d.Name, budget/1e6)
	case cycles > budget:
		return fmt.Errorf("%w: %sdemand %.2f Mcycles/s exceeds %s budget %.2f Mcycles/s",
			ErrNotRealTime, qualifier, cycles/1e6, d.Name, budget/1e6)
	case memoryBytes > d.RAMBytes && plan != nil:
		return fmt.Errorf("%w: %q needs %d B, %s has %d B",
			ErrOutOfMemory, plan.Name, memoryBytes, d.Name, d.RAMBytes)
	case memoryBytes > d.RAMBytes:
		return fmt.Errorf("%w: %sstate %d B exceeds %s RAM %d B",
			ErrOutOfMemory, qualifier, memoryBytes, d.Name, d.RAMBytes)
	}
	return nil
}

// SelectDevice returns the lowest-power device from candidates that can
// run every given plan concurrently, billed standalone (no sharing). This
// reproduces the prototype's device choice: accelerometer conditions land
// on the MSP430, while the siren detector's FFT chain forces the LM4F120
// (paper §4.3, Table 2).
func SelectDevice(candidates []Device, plans ...*core.Plan) (Device, error) {
	if len(plans) == 0 {
		return Device{}, errors.New("hub: no plans to place")
	}
	f, i, mem := ir.Demand(ir.NoOpt(), plans...)
	return selectDevice(candidates, f, i, mem, "combined ", "run the condition set")
}

// SelectDeviceForDemand returns the lowest-power device satisfying a raw
// demand.
func SelectDeviceForDemand(candidates []Device, floatOpsPerSec, intOpsPerSec float64, memoryBytes int) (Device, error) {
	return selectDevice(candidates, floatOpsPerSec, intOpsPerSec, memoryBytes, "", "satisfy the demand")
}

// selectDevice is the one device loop: the first candidate that admits
// the demand, or the first candidate's rejection wrapped with goal.
func selectDevice(candidates []Device, floatOpsPerSec, intOpsPerSec float64, memoryBytes int, qualifier, goal string) (Device, error) {
	var firstErr error
	for _, d := range candidates {
		err := d.check(floatOpsPerSec, intOpsPerSec, memoryBytes, nil, qualifier)
		if err == nil {
			return d, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = errors.New("hub: no candidate devices")
	}
	return Device{}, fmt.Errorf("hub: no device can %s: %w", goal, firstErr)
}
