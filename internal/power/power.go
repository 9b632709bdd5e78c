// Package power implements the energy model of the evaluation (paper §4,
// Table 1): a four-state phone power state machine with the measured
// Google Nexus 4 draw figures, plus constant sensor-hub draw, integrated
// over simulated time to estimate average power.
package power

import (
	"fmt"
	"math"
)

// State is the phone's power state.
type State int

const (
	// Asleep: main processor in its low-power sleep state (9.7 mW).
	Asleep State = iota
	// WakingUp: asleep-to-awake transition (384 mW, 1 s).
	WakingUp
	// Awake: running the sensor-driven application (323 mW).
	Awake
	// FallingAsleep: awake-to-asleep transition (341 mW, 1 s).
	FallingAsleep
	numStates int = iota
)

// String returns a short state name.
func (s State) String() string {
	switch s {
	case Asleep:
		return "asleep"
	case WakingUp:
		return "waking-up"
	case Awake:
		return "awake"
	case FallingAsleep:
		return "falling-asleep"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Profile holds a phone's measured power constants (paper Table 1).
type Profile struct {
	Name string
	// Draw per state in milliwatts.
	AwakeMW          float64
	AsleepMW         float64
	WakeTransitionMW float64
	SleepTransition  float64
	// TransitionSeconds is the duration of each transition.
	TransitionSeconds float64
}

// Nexus4 returns the Google Nexus 4 profile measured in the paper
// (Table 1): awake 323 mW, asleep 9.7 mW, asleep-to-awake 384 mW and
// awake-to-asleep 341 mW, each transition lasting 1 second.
func Nexus4() Profile {
	return Profile{
		Name:              "Nexus 4",
		AwakeMW:           323,
		AsleepMW:          9.7,
		WakeTransitionMW:  384,
		SleepTransition:   341,
		TransitionSeconds: 1,
	}
}

// DrawMW returns the profile's draw in the given state.
func (p Profile) DrawMW(s State) float64 {
	switch s {
	case Asleep:
		return p.AsleepMW
	case WakingUp:
		return p.WakeTransitionMW
	case Awake:
		return p.AwakeMW
	case FallingAsleep:
		return p.SleepTransition
	}
	return 0
}

// Phone is the simulated main-processor power state machine. Time advances
// explicitly via Advance; wake and sleep requests start the corresponding
// transitions. The zero value is not usable; construct with NewPhone.
type Phone struct {
	profile        Profile
	state          State
	transitionLeft float64 // seconds remaining in the active transition
	dwell          [numStates]float64
	wakeUps        int
	// transitionHook, when set, observes every state change. The power
	// model stays telemetry-agnostic: tracing layers attach a hook instead
	// of this package importing them.
	transitionHook func(from, to State)
}

// SetTransitionHook registers a callback invoked on every state change,
// with the state being left and the state being entered. A nil hook
// detaches. The hook fires after the machine has switched state, so
// Phone.State() inside the hook reports the new state.
func (p *Phone) SetTransitionHook(fn func(from, to State)) { p.transitionHook = fn }

func (p *Phone) transition(to State) {
	from := p.state
	p.state = to
	if p.transitionHook != nil {
		p.transitionHook(from, to)
	}
}

// NewPhone returns a phone that starts asleep.
func NewPhone(profile Profile) *Phone {
	return &Phone{profile: profile, state: Asleep}
}

// NewPhoneAwake returns a phone that starts fully awake without charging a
// wake transition (used by the Always-Awake baseline, which by definition
// never slept).
func NewPhoneAwake(profile Profile) *Phone {
	return &Phone{profile: profile, state: Awake}
}

// State returns the current power state.
func (p *Phone) State() State { return p.state }

// WakeUps returns the number of asleep-to-awake transitions started.
func (p *Phone) WakeUps() int { return p.wakeUps }

// RequestWake begins waking the phone. A request while asleep (or while
// falling asleep) starts a full wake transition; requests while waking or
// awake are no-ops. It reports whether a new wake-up was started.
func (p *Phone) RequestWake() bool {
	switch p.state {
	case Asleep, FallingAsleep:
		p.transition(WakingUp)
		p.transitionLeft = p.profile.TransitionSeconds
		p.wakeUps++
		return true
	default:
		return false
	}
}

// RequestSleep begins putting the phone to sleep. Only a fully awake phone
// can start the transition; other states are no-ops. It reports whether
// the transition started.
func (p *Phone) RequestSleep() bool {
	if p.state != Awake {
		return false
	}
	p.transition(FallingAsleep)
	p.transitionLeft = p.profile.TransitionSeconds
	return true
}

// Advance moves simulated time forward by dt seconds, completing
// transitions as they elapse and accounting dwell time per state.
func (p *Phone) Advance(dt float64) {
	for dt > 0 {
		switch p.state {
		case Asleep, Awake:
			p.dwell[p.state] += dt
			return
		case WakingUp, FallingAsleep:
			if dt < p.transitionLeft {
				p.dwell[p.state] += dt
				p.transitionLeft -= dt
				return
			}
			p.dwell[p.state] += p.transitionLeft
			dt -= p.transitionLeft
			if p.state == WakingUp {
				p.transition(Awake)
			} else {
				p.transition(Asleep)
			}
			p.transitionLeft = 0
		}
	}
}

// AdvanceSteps moves simulated time forward by k steps of dt seconds. It
// equals k successive Advance(dt) calls bit for bit: the same additions in
// the same order, with the steps after a transition completes folded into
// one tight loop over the settled state's dwell.
func (p *Phone) AdvanceSteps(dt float64, k int) {
	if !(dt > 0) {
		return // Advance(dt) is a no-op, so k of them are too
	}
	for ; k > 0 && (p.state == WakingUp || p.state == FallingAsleep); k-- {
		p.Advance(dt)
	}
	d := p.dwell[p.state]
	for ; k > 0; k-- {
		d += dt
	}
	p.dwell[p.state] = d
}

// Dwell returns the accumulated seconds spent in state s.
func (p *Phone) Dwell(s State) float64 { return p.dwell[s] }

// TotalSeconds returns the total simulated time.
func (p *Phone) TotalSeconds() float64 {
	var t float64
	for _, d := range p.dwell {
		t += d
	}
	return t
}

// StateEnergyMJ returns the energy spent dwelling in state s, in
// millijoules. Summing over all states gives EnergyMJ exactly, which is
// the conservation property the telemetry ledger is tested against.
func (p *Phone) StateEnergyMJ(s State) float64 {
	return p.dwell[s] * p.profile.DrawMW(s)
}

// EnergyMJ returns the total phone energy in millijoules.
func (p *Phone) EnergyMJ() float64 {
	var e float64
	for s := State(0); int(s) < numStates; s++ {
		e += p.dwell[s] * p.profile.DrawMW(s)
	}
	return e
}

// AverageMW returns the phone's average draw over the simulated time.
func (p *Phone) AverageMW() float64 {
	t := p.TotalSeconds()
	if t == 0 {
		return 0
	}
	return p.EnergyMJ() / t
}

// Nexus4BatteryMWh is the Nexus 4's battery capacity in milliwatt-hours
// (2100 mAh at a 3.8 V nominal cell voltage), used to translate average
// power into the battery life the paper's introduction motivates.
const Nexus4BatteryMWh = 2100 * 3.8

// BatteryLifeHours converts an average draw in milliwatts into hours on
// the given battery capacity (milliwatt-hours). Zero draw returns +Inf.
func BatteryLifeHours(avgMW, capacityMWh float64) float64 {
	if avgMW <= 0 {
		return math.Inf(1)
	}
	return capacityMWh / avgMW
}

// Report summarizes a simulation's energy accounting.
type Report struct {
	// Dwell per phone state, seconds.
	AsleepSec, WakingSec, AwakeSec, SleepingSec float64
	// WakeUps counts asleep-to-awake transitions.
	WakeUps int
	// PhoneAvgMW is the phone's average draw; HubMW the constant hub
	// draw (0 when the configuration uses no hub); TotalAvgMW the sum.
	PhoneAvgMW float64
	HubMW      float64
	TotalAvgMW float64
}

// Summarize produces the report for a finished phone timeline plus a
// constant hub draw.
func Summarize(p *Phone, hubMW float64) Report {
	avg := p.AverageMW()
	return Report{
		AsleepSec:   p.Dwell(Asleep),
		WakingSec:   p.Dwell(WakingUp),
		AwakeSec:    p.Dwell(Awake),
		SleepingSec: p.Dwell(FallingAsleep),
		WakeUps:     p.WakeUps(),
		PhoneAvgMW:  avg,
		HubMW:       hubMW,
		TotalAvgMW:  avg + hubMW,
	}
}
