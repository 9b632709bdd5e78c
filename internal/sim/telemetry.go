package sim

import (
	"sidewinder/internal/power"
	"sidewinder/internal/telemetry"
)

// This file holds the simulation-side telemetry glue: the strategies and
// the testbed replays all trace and deposit phone energy the same way, so
// the conversions live here once (the hub's live on
// telemetry.InterpProfile, shared with cmd/hubemu). Everything is nil-safe — with
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
