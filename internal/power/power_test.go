package power

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNexus4MatchesTable1(t *testing.T) {
	p := Nexus4()
	if p.AwakeMW != 323 {
		t.Errorf("awake = %g, want 323", p.AwakeMW)
	}
	if p.AsleepMW != 9.7 {
		t.Errorf("asleep = %g, want 9.7", p.AsleepMW)
	}
	if p.WakeTransitionMW != 384 {
		t.Errorf("wake transition = %g, want 384", p.WakeTransitionMW)
	}
	if p.SleepTransition != 341 {
		t.Errorf("sleep transition = %g, want 341", p.SleepTransition)
	}
	if p.TransitionSeconds != 1 {
		t.Errorf("transition duration = %g, want 1", p.TransitionSeconds)
	}
	for s := State(0); int(s) < numStates; s++ {
		if p.DrawMW(s) <= 0 {
			t.Errorf("DrawMW(%s) = %g", s, p.DrawMW(s))
		}
	}
}

func TestAlwaysAsleepAverage(t *testing.T) {
	ph := NewPhone(Nexus4())
	ph.Advance(3600)
	if got := ph.AverageMW(); !approx(got, 9.7, 1e-9) {
		t.Errorf("always-asleep average = %g, want 9.7", got)
	}
}

func TestAlwaysAwakeAverage(t *testing.T) {
	ph := NewPhone(Nexus4())
	ph.RequestWake()
	ph.Advance(1) // transition completes
	if ph.State() != Awake {
		t.Fatalf("state after 1 s = %s", ph.State())
	}
	ph.Advance(3599)
	// 1 s at 384 mW + 3599 s at 323 mW.
	want := (1*384 + 3599*323) / 3600.0
	if got := ph.AverageMW(); !approx(got, want, 1e-9) {
		t.Errorf("average = %g, want %g", got, want)
	}
}

func TestWakeSleepCycleEnergy(t *testing.T) {
	ph := NewPhone(Nexus4())
	// 10 s asleep, wake (1 s), 4 s awake, sleep (1 s), 4 s asleep.
	ph.Advance(10)
	ph.RequestWake()
	ph.Advance(1)
	ph.Advance(4)
	ph.RequestSleep()
	ph.Advance(1)
	ph.Advance(4)
	if got := ph.TotalSeconds(); !approx(got, 20, 1e-12) {
		t.Fatalf("total = %g", got)
	}
	wantEnergy := 14*9.7 + 1*384 + 4*323 + 1*341
	if got := ph.EnergyMJ(); !approx(got, wantEnergy, 1e-9) {
		t.Errorf("energy = %g, want %g", got, wantEnergy)
	}
	if ph.WakeUps() != 1 {
		t.Errorf("wakeups = %d", ph.WakeUps())
	}
	if ph.State() != Asleep {
		t.Errorf("final state = %s", ph.State())
	}
}

func TestAdvanceSplitsAcrossTransition(t *testing.T) {
	ph := NewPhone(Nexus4())
	ph.RequestWake()
	// One big step: 0.4 s into the transition remains transitioning.
	ph.Advance(0.4)
	if ph.State() != WakingUp {
		t.Fatalf("state = %s", ph.State())
	}
	// 2 s more: 0.6 s completes the transition, 1.4 s awake.
	ph.Advance(2)
	if ph.State() != Awake {
		t.Fatalf("state = %s", ph.State())
	}
	if !approx(ph.Dwell(WakingUp), 1, 1e-12) {
		t.Errorf("waking dwell = %g", ph.Dwell(WakingUp))
	}
	if !approx(ph.Dwell(Awake), 1.4, 1e-12) {
		t.Errorf("awake dwell = %g", ph.Dwell(Awake))
	}
}

func TestRequestSemantics(t *testing.T) {
	ph := NewPhone(Nexus4())
	if !ph.RequestWake() {
		t.Error("wake from asleep should start")
	}
	if ph.RequestWake() {
		t.Error("wake while waking should be a no-op")
	}
	if ph.RequestSleep() {
		t.Error("sleep while waking should be a no-op")
	}
	ph.Advance(1)
	if ph.RequestWake() {
		t.Error("wake while awake should be a no-op")
	}
	if !ph.RequestSleep() {
		t.Error("sleep from awake should start")
	}
	// Wake during falling-asleep interrupts and counts a new wake-up.
	if !ph.RequestWake() {
		t.Error("wake while falling asleep should start")
	}
	if ph.WakeUps() != 2 {
		t.Errorf("wakeups = %d, want 2", ph.WakeUps())
	}
	if ph.State() != WakingUp {
		t.Errorf("state = %s, want waking-up", ph.State())
	}
}

func TestSummarize(t *testing.T) {
	ph := NewPhone(Nexus4())
	ph.Advance(9)
	ph.RequestWake()
	ph.Advance(1)
	ph.Advance(9)
	ph.RequestSleep()
	ph.Advance(1)
	rep := Summarize(ph, 3.6)
	if rep.AsleepSec != 9 || rep.AwakeSec != 9 || rep.WakingSec != 1 || rep.SleepingSec != 1 {
		t.Errorf("dwells = %+v", rep)
	}
	if rep.WakeUps != 1 {
		t.Errorf("wakeups = %d", rep.WakeUps)
	}
	if !approx(rep.TotalAvgMW, rep.PhoneAvgMW+3.6, 1e-12) {
		t.Errorf("total = %g, phone = %g", rep.TotalAvgMW, rep.PhoneAvgMW)
	}
	wantPhone := (9*9.7 + 1*384 + 9*323 + 1*341) / 20
	if !approx(rep.PhoneAvgMW, wantPhone, 1e-9) {
		t.Errorf("phone avg = %g, want %g", rep.PhoneAvgMW, wantPhone)
	}
}

func TestAverageBoundedProperty(t *testing.T) {
	// However the phone is driven, its average power lies between the
	// asleep and wake-transition draws.
	f := func(ops []bool, stepsRaw uint8) bool {
		ph := NewPhone(Nexus4())
		steps := float64(stepsRaw%50) + 1
		for _, wake := range ops {
			if wake {
				ph.RequestWake()
			} else {
				ph.RequestSleep()
			}
			ph.Advance(steps / 10)
		}
		ph.Advance(1)
		avg := ph.AverageMW()
		return avg >= 9.7-1e-9 && avg <= 384+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDwellConservationProperty(t *testing.T) {
	// Total advanced time always equals the sum of dwells.
	f := func(ops []bool) bool {
		ph := NewPhone(Nexus4())
		var advanced float64
		for i, wake := range ops {
			if wake {
				ph.RequestWake()
			} else {
				ph.RequestSleep()
			}
			dt := float64(i%7) * 0.3
			ph.Advance(dt)
			advanced += dt
		}
		return approx(ph.TotalSeconds(), advanced, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroTimeAverage(t *testing.T) {
	ph := NewPhone(Nexus4())
	if ph.AverageMW() != 0 {
		t.Error("zero-time average should be 0")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Asleep: "asleep", WakingUp: "waking-up", Awake: "awake", FallingAsleep: "falling-asleep",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should stringify diagnostically")
	}
}

func TestBatteryLifeHours(t *testing.T) {
	// Always-awake at 323 mW drains the Nexus 4 battery in ~24.7 h.
	h := BatteryLifeHours(323, Nexus4BatteryMWh)
	if h < 24 || h > 26 {
		t.Errorf("always-awake battery life = %.1f h, want ~24.7", h)
	}
	// Asleep at 9.7 mW lasts over a month.
	if h := BatteryLifeHours(9.7, Nexus4BatteryMWh); h < 800 {
		t.Errorf("asleep battery life = %.1f h", h)
	}
	if !math.IsInf(BatteryLifeHours(0, Nexus4BatteryMWh), 1) {
		t.Error("zero draw should be infinite")
	}
}

func TestTransitionHookObservesFullCycle(t *testing.T) {
	p := NewPhone(Nexus4())
	type tr struct{ from, to State }
	var seen []tr
	p.SetTransitionHook(func(from, to State) {
		seen = append(seen, tr{from, to})
		if p.State() != to {
			t.Errorf("hook fired before state switch: State()=%v, to=%v", p.State(), to)
		}
	})

	p.Advance(5)
	p.RequestWake()
	p.Advance(2) // completes the 1 s wake transition
	p.RequestSleep()
	p.Advance(2) // completes the 1 s sleep transition

	want := []tr{
		{Asleep, WakingUp},
		{WakingUp, Awake},
		{Awake, FallingAsleep},
		{FallingAsleep, Asleep},
	}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %d transitions %v, want %d", len(seen), seen, len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("transition %d: got %v -> %v, want %v -> %v",
				i, seen[i].from, seen[i].to, want[i].from, want[i].to)
		}
	}

	// Detaching stops observation.
	p.SetTransitionHook(nil)
	p.RequestWake()
	p.Advance(2)
	if len(seen) != len(want) {
		t.Errorf("detached hook still fired: %d events", len(seen))
	}
}

func TestStateEnergySumsToTotal(t *testing.T) {
	p := NewPhone(Nexus4())
	p.Advance(10)
	p.RequestWake()
	p.Advance(3.5)
	p.RequestSleep()
	p.Advance(7.25)

	var sum float64
	for s := State(0); int(s) < numStates; s++ {
		sum += p.StateEnergyMJ(s)
	}
	if diff := math.Abs(sum - p.EnergyMJ()); diff > 1e-9 {
		t.Fatalf("per-state energies sum to %g, EnergyMJ()=%g (diff %g)", sum, p.EnergyMJ(), diff)
	}
	if got := p.StateEnergyMJ(Asleep); math.Abs(got-16.25*9.7) > 1e-9 {
		t.Errorf("asleep energy = %g, want %g", got, 16.25*9.7)
	}
}

// TestAdvanceStepsMatchesAdvance pins AdvanceSteps(dt, k) to k successive
// Advance(dt) calls bit for bit, from every state including partway
// through each transition, over step sizes that do and do not divide the
// transition, and over non-positive and NaN steps (no-ops for both).
func TestAdvanceStepsMatchesAdvance(t *testing.T) {
	starts := map[string]func() *Phone{
		"asleep": func() *Phone { return NewPhone(Nexus4()) },
		"awake":  func() *Phone { return NewPhoneAwake(Nexus4()) },
		"waking": func() *Phone { p := NewPhone(Nexus4()); p.RequestWake(); return p },
		"mid-waking": func() *Phone {
			p := NewPhone(Nexus4())
			p.RequestWake()
			p.Advance(0.37)
			return p
		},
		"falling": func() *Phone { p := NewPhoneAwake(Nexus4()); p.RequestSleep(); return p },
		"mid-falling": func() *Phone {
			p := NewPhoneAwake(Nexus4())
			p.Advance(2.5)
			p.RequestSleep()
			p.Advance(0.61)
			return p
		},
	}
	steps := []float64{1.0 / 50, 1.0 / 3, 0.3, 1.0 / 8000, 1, 2.5, 0, -0.1, math.NaN()}
	counts := []int{0, 1, 2, 7, 49, 50, 51, 1000}
	for name, start := range starts {
		for _, dt := range steps {
			for _, k := range counts {
				want, got := start(), start()
				var wantHooks, gotHooks int
				want.SetTransitionHook(func(State, State) { wantHooks++ })
				got.SetTransitionHook(func(State, State) { gotHooks++ })
				for j := 0; j < k; j++ {
					want.Advance(dt)
				}
				got.AdvanceSteps(dt, k)
				if got.state != want.state || got.wakeUps != want.wakeUps || gotHooks != wantHooks ||
					math.Float64bits(got.transitionLeft) != math.Float64bits(want.transitionLeft) {
					t.Fatalf("%s dt=%g k=%d: state %s/%s, transition left %v/%v, hooks %d/%d",
						name, dt, k, got.state, want.state, got.transitionLeft, want.transitionLeft, gotHooks, wantHooks)
				}
				for s := State(0); int(s) < numStates; s++ {
					if math.Float64bits(got.Dwell(s)) != math.Float64bits(want.Dwell(s)) {
						t.Fatalf("%s dt=%g k=%d: %s dwell %v, want %v", name, dt, k, s, got.Dwell(s), want.Dwell(s))
					}
				}
			}
		}
	}
}
