package sim

import (
	"sidewinder/internal/hub"
	"sidewinder/internal/power"
	"sidewinder/internal/telemetry"
)

// This file holds the simulation-side telemetry glue: the strategies and
// the lossy-link replay all deposit energy and emit trace events the same
// way, so the conversions live here once. Everything is nil-safe — with
// telemetry disabled these helpers reduce to a few no-op calls.

// tracePhoneTransitions attaches a transition hook that records every
// phone power-state change as an instant on the stream. A nil stream
// detaches nothing and installs nothing.
func tracePhoneTransitions(ph *power.Phone, s *telemetry.Stream) {
	if s == nil {
		return
	}
	ph.SetTransitionHook(func(from, to power.State) {
		s.InstantStr("phone.state", "power", "state", to.String())
	})
}

// depositPhoneEnergy attributes a finished phone timeline's per-state
// energy to the ledger. The four phone components sum to ph.EnergyMJ()
// exactly (same dwell × draw products).
func depositPhoneEnergy(l *telemetry.Ledger, ph *power.Phone) {
	l.AddEnergyMJ(telemetry.PhoneAsleep, ph.StateEnergyMJ(power.Asleep))
	l.AddEnergyMJ(telemetry.PhoneWaking, ph.StateEnergyMJ(power.WakingUp))
	l.AddEnergyMJ(telemetry.PhoneAwake, ph.StateEnergyMJ(power.Awake))
	l.AddEnergyMJ(telemetry.PhoneFallingAsleep, ph.StateEnergyMJ(power.FallingAsleep))
}

// depositHubEnergy attributes the hub device's constant active draw over
// the run duration, and converts the interpreter profile's per-stage work
// into device cycles on the ledger.
func depositHubEnergy(l *telemetry.Ledger, dev hub.Device, durSec float64, prof *telemetry.InterpProfile) {
	l.AddEnergyMJ(telemetry.HubDevice, dev.ActivePowerMW*durSec)
	prof.DepositCycles(l, dev.Cycles)
}

// emitStageSpans lays the profile's per-stage execution time out as
// consecutive spans on the stream, converting abstract work into seconds
// on the given device. The track reads as "where the hub's busy time
// went"; span order follows kind-sorted stage names.
func emitStageSpans(s *telemetry.Stream, prof *telemetry.InterpProfile, dev hub.Device) {
	if s == nil || prof == nil || dev.ClockHz <= 0 {
		return
	}
	at := 0.0
	for _, st := range prof.Stages() {
		dur := dev.Cycles(st.FloatOps, st.IntOps) / dev.ClockHz
		if dur <= 0 {
			continue
		}
		s.Span(st.Kind, "stage", at, dur)
		at += dur
	}
}
