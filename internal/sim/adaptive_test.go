package sim

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidewinder/internal/adapt"
	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// adaptiveCombos is the property-test corpus: both continuous
// accelerometer conditions on a mixed robot trace, and every audio
// application on a generated environment — the combos span both hub
// devices, the Q15 rung, the decimation rungs, a re-admission veto
// (music) and the AIMD threshold axis (phrase).
func adaptiveCombos(t *testing.T) []struct {
	app *apps.App
	tr  *sensor.Trace
} {
	t.Helper()
	robot := robotTrace(t, 0.5)
	out := []struct {
		app *apps.App
		tr  *sensor.Trace
	}{
		{apps.Steps(), robot},
		{apps.Transitions(), robot},
	}
	envs := tracegen.AudioEnvironments()
	for i, app := range apps.AudioApps() {
		env := envs[i%len(envs)]
		cfg := tracegen.NewAudioConfig(1+int64(i)*101, 4*time.Minute, env)
		tr, err := tracegen.Audio(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			app *apps.App
			tr  *sensor.Trace
		}{app, tr})
	}
	return out
}

// adaptiveTestConfig shortens patience/cooldown the same way the eval
// sweep does, so minutes-long traces exercise the whole ladder.
func adaptiveTestConfig() adapt.Config {
	cfg := adapt.DefaultConfig()
	cfg.Patience = 3
	cfg.Cooldown = 6
	return cfg
}

func deviceByName(t *testing.T, name string) hub.Device {
	t.Helper()
	for _, d := range hub.Devices() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("unknown device %q", name)
	return hub.Device{}
}

// TestAdaptiveBudgetAndLedgerProperties pins the two contracts every
// adaptation sequence must honor, on every corpus combo:
//
//  1. Budget invariance — the configuration resident at the end of the
//     run, re-resolved from its knobs exactly as the simulator admitted
//     it, fits the placed device's cycle/RAM budget and demands no more
//     cycles than the statically pushed program. Adaptation can only
//     move demand down.
//  2. Ledger conservation — AdaptedMJ + SavingsMJ == StaticMJ to 1e-9,
//     the ledger's hub.device and adapt.savings components carry exactly
//     those quantities, and the phone components still sum to the power
//     report's phone share. Savings are never negative, and across the
//     corpus they are strictly positive (the experiment's acceptance
//     criterion), with the observed missed-wake rate inside the bound.
func TestAdaptiveBudgetAndLedgerProperties(t *testing.T) {
	cfg := adaptiveTestConfig()
	cat := core.DefaultCatalog()
	totalSavings := 0.0
	for _, combo := range adaptiveCombos(t) {
		led := telemetry.NewLedger()
		r, err := AdaptiveSidewinder{Config: cfg, Telemetry: telemetry.Set{Ledger: led}}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatalf("%s/%s: %v", combo.app.Name, combo.tr.Name, err)
		}
		a := r.Adapt
		if a == nil {
			t.Fatalf("%s: no adaptation stats", combo.app.Name)
		}

		// Property 1: the final resident configuration re-admits cleanly.
		base, err := combo.app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		dev := deviceByName(t, r.Device)
		baseF, baseI, _ := adapt.Demand(base, interp.Float64)
		plan, err := adapt.Reparameterize(cat, base, a.FinalKnobs)
		if err != nil {
			t.Fatalf("%s: final knobs %+v do not reparameterize: %v", combo.app.Name, a.FinalKnobs, err)
		}
		f, i, mem := adapt.Demand(plan, a.FinalKnobs.Precision)
		if !dev.Fits(f, i, mem) {
			t.Errorf("%s: final configuration exceeds %s budget (f=%g i=%g mem=%d)",
				combo.app.Name, r.Device, f, i, mem)
		}
		if dev.Cycles(f, i) > dev.Cycles(baseF, baseI) {
			t.Errorf("%s: adapted demand %.0f cyc/s above static %.0f cyc/s",
				combo.app.Name, dev.Cycles(f, i), dev.Cycles(baseF, baseI))
		}
		// Knobs stay inside the configured bounds.
		k := a.FinalKnobs
		if k.Decimation < 1 || k.Decimation > cfg.MaxDecimation ||
			k.WindowScale < 1 || k.WindowScale > cfg.MaxWindowScale ||
			k.ThresholdFactor < 1 || k.ThresholdFactor > cfg.ThresholdMax ||
			(k.Precision == interp.Q15 && !cfg.AllowQ15) {
			t.Errorf("%s: final knobs %+v escape config bounds", combo.app.Name, k)
		}

		// Property 2: energy conservation at 1e-9.
		if a.SavingsMJ < -1e-9 {
			t.Errorf("%s: negative savings %.12g mJ", combo.app.Name, a.SavingsMJ)
		}
		if diff := math.Abs(a.AdaptedMJ + a.SavingsMJ - a.StaticMJ); diff > 1e-9*math.Max(1, a.StaticMJ) {
			t.Errorf("%s: adapted %.12g + savings %.12g != static %.12g",
				combo.app.Name, a.AdaptedMJ, a.SavingsMJ, a.StaticMJ)
		}
		if diff := math.Abs(led.EnergyMJ(telemetry.HubDevice) - a.AdaptedMJ); diff > 1e-9*math.Max(1, a.AdaptedMJ) {
			t.Errorf("%s: ledger hub.device %.12g != adapted %.12g",
				combo.app.Name, led.EnergyMJ(telemetry.HubDevice), a.AdaptedMJ)
		}
		if diff := math.Abs(led.EnergyMJ(telemetry.AdaptSavings) - a.SavingsMJ); diff > 1e-9*math.Max(1, a.SavingsMJ) {
			t.Errorf("%s: ledger adapt.savings %.12g != savings %.12g",
				combo.app.Name, led.EnergyMJ(telemetry.AdaptSavings), a.SavingsMJ)
		}
		dur := r.Power.AsleepSec + r.Power.WakingSec + r.Power.AwakeSec + r.Power.SleepingSec
		var phone float64
		for _, c := range []telemetry.Component{
			telemetry.PhoneAsleep, telemetry.PhoneWaking,
			telemetry.PhoneAwake, telemetry.PhoneFallingAsleep,
		} {
			phone += led.EnergyMJ(c)
		}
		if diff := math.Abs(phone - r.Power.PhoneAvgMW*dur); diff > 1e-9*math.Max(1, phone) {
			t.Errorf("%s: phone components %.12g != report %.12g",
				combo.app.Name, phone, r.Power.PhoneAvgMW*dur)
		}
		// Everything the ledger holds beyond the savings attribution is
		// energy the run actually spent.
		spent := led.TotalMJ() - led.EnergyMJ(telemetry.AdaptSavings)
		if diff := math.Abs(spent - r.Power.TotalAvgMW*dur); diff > 1e-9*math.Max(1, spent) {
			t.Errorf("%s: ledger spend %.12g != run aggregate %.12g",
				combo.app.Name, spent, r.Power.TotalAvgMW*dur)
		}

		if a.MissedRate > cfg.MissedWakeBound+1e-12 {
			t.Errorf("%s: missed-wake rate %.3f above bound %.3f",
				combo.app.Name, a.MissedRate, cfg.MissedWakeBound)
		}
		totalSavings += a.SavingsMJ
	}
	if totalSavings <= 0 {
		t.Errorf("corpus-wide savings %.3f mJ, want > 0", totalSavings)
	}
}

// TestAdaptiveFrozenArmIsStatic: the frozen control arm must bill exactly
// the static counterfactual — zero savings by construction, no adoptions,
// baseline knobs — so the experiment's delta is purely the policy.
func TestAdaptiveFrozenArmIsStatic(t *testing.T) {
	cfg := adaptiveTestConfig()
	for _, combo := range adaptiveCombos(t) {
		r, err := AdaptiveSidewinder{Config: cfg, Frozen: true}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatalf("%s: %v", combo.app.Name, err)
		}
		a := r.Adapt
		if a.SavingsMJ != 0 {
			t.Errorf("%s: frozen arm saved %.12g mJ, want exactly 0", combo.app.Name, a.SavingsMJ)
		}
		if a.Adoptions != 0 || a.Changes != 0 {
			t.Errorf("%s: frozen arm adapted: %+v", combo.app.Name, a)
		}
		k := a.FinalKnobs
		if k.Decimation != 1 || k.WindowScale != 1 || k.ThresholdFactor != 1 || k.Precision != interp.Float64 {
			t.Errorf("%s: frozen arm moved knobs: %+v", combo.app.Name, k)
		}
	}
}

// TestAdaptiveDeterminism: the policy is driven only by the trace, so two
// runs are identical and telemetry instrumentation changes nothing — the
// foundation of the CI worker-invariance leg.
func TestAdaptiveDeterminism(t *testing.T) {
	cfg := adaptiveTestConfig()
	combos := adaptiveCombos(t)
	for _, combo := range combos[:3] { // steps, transitions, first audio app
		bare1, err := AdaptiveSidewinder{Config: cfg}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		bare2, err := AdaptiveSidewinder{Config: cfg}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		if bare1.Power != bare2.Power || bare1.Recall != bare2.Recall {
			t.Errorf("%s: repeated run diverged", combo.app.Name)
		}
		if !reflect.DeepEqual(bare1.Adapt, bare2.Adapt) {
			t.Errorf("%s: adaptation stats diverged:\n%+v\n%+v", combo.app.Name, bare1.Adapt, bare2.Adapt)
		}
		instr, err := AdaptiveSidewinder{Config: cfg, Telemetry: telemetry.Set{
			Metrics: telemetry.NewRegistry(),
			Ledger:  telemetry.NewLedger(),
			Tracer:  telemetry.NewTracer(),
		}}.Run(combo.tr, combo.app)
		if err != nil {
			t.Fatal(err)
		}
		if bare1.Power != instr.Power || !reflect.DeepEqual(bare1.Adapt, instr.Adapt) {
			t.Errorf("%s: telemetry changed the run", combo.app.Name)
		}
	}
}

// TestAdaptiveValidation covers the error paths: an app whose channels
// the trace lacks, and a config whose every non-baseline rung is
// unreachable (the engine then never leaves the pushed program).
func TestAdaptiveValidation(t *testing.T) {
	tr := robotTrace(t, 0.5)
	if _, err := (AdaptiveSidewinder{}).Run(tr, apps.Sirens()); err == nil {
		t.Error("missing mic channel must error")
	}
	cfg := adapt.DefaultConfig()
	cfg.MaxDecimation = 1
	cfg.AllowQ15 = false
	cfg.Patience = 1
	r, err := AdaptiveSidewinder{Config: cfg}.Run(tr, apps.Steps())
	if err != nil {
		t.Fatal(err)
	}
	if k := r.Adapt.FinalKnobs; k.Decimation != 1 || k.Precision != interp.Float64 {
		t.Errorf("single-rung ladder escaped baseline: %+v", k)
	}
}

// sameAdaptiveResult reports whether got equals want field by field, with
// every power figure and hub energy compared bit for bit.
func sameAdaptiveResult(got, want *Result) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	g, w := got.Power, want.Power
	ga, wa := got.Adapt, want.Adapt
	for _, p := range [][2]float64{
		{g.AsleepSec, w.AsleepSec}, {g.WakingSec, w.WakingSec}, {g.AwakeSec, w.AwakeSec},
		{g.SleepingSec, w.SleepingSec}, {g.PhoneAvgMW, w.PhoneAvgMW}, {g.HubMW, w.HubMW},
		{g.TotalAvgMW, w.TotalAvgMW}, {ga.StaticMJ, wa.StaticMJ}, {ga.AdaptedMJ, wa.AdaptedMJ},
		{ga.SavingsMJ, wa.SavingsMJ}, {ga.MissedRate, wa.MissedRate},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// TestAdaptiveArmsMatchUnsharedRuns: each arm AdaptiveArms returns runs
// exactly as a standalone AdaptiveSidewinder with its own hub pass, on
// every corpus combo, whichever arm reaches a trace first. The corpus
// adopts new programs (music, phrase), so an arm that kept copying the
// shared pass after a swap would differ; and the arms must really share,
// one pass per combo, or the comparison proves nothing.
func TestAdaptiveArmsMatchUnsharedRuns(t *testing.T) {
	cfg := adaptiveTestConfig()
	combos := adaptiveCombos(t)
	static, adaptive := AdaptiveArms(cfg)
	adoptions := 0
	for ci, combo := range combos {
		arms := []AdaptiveSidewinder{static, adaptive}
		if ci%2 == 1 {
			arms[0], arms[1] = adaptive, static
		}
		for _, arm := range arms {
			got, err := arm.Run(combo.tr, combo.app)
			if err != nil {
				t.Fatalf("%s/%s: %v", arm.Name(), combo.app.Name, err)
			}
			want, err := AdaptiveSidewinder{Config: cfg, Frozen: arm.Frozen}.Run(combo.tr, combo.app)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAdaptiveResult(got, want) {
				t.Errorf("%s/%s: shared pass\n%+v\n%+v\nown pass\n%+v\n%+v",
					arm.Name(), combo.app.Name, got, got.Adapt, want, want.Adapt)
			}
			adoptions += got.Adapt.Adoptions
		}
	}
	if adoptions == 0 {
		t.Error("no arm adopted a program; the comparison never leaves the shared pass")
	}
	if n := len(static.passes.entries); n != len(combos) {
		t.Errorf("%d shared passes for %d combos", n, len(combos))
	}
}

// TestAdaptiveArmsShareOnePass: arms running in parallel hold one shared
// pass per distinct (trace, pushed program text, precision) key, derived
// here from the pushed knobs, and every run still equals a standalone
// one; and the memo runs each key's pass exactly once however many
// goroutines ask for it at the same time.
func TestAdaptiveArmsShareOnePass(t *testing.T) {
	cfg := adaptiveTestConfig()
	acfg := tracegen.NewAudioConfig(5, 30*time.Second, tracegen.OfficeAudio)
	audio, err := tracegen.Audio(acfg)
	if err != nil {
		t.Fatal(err)
	}
	robot := robotTrace(t, 0.5)
	combos := []struct {
		app *apps.App
		tr  *sensor.Trace
	}{{apps.Steps(), robot}, {apps.Transitions(), robot}, {apps.Sirens(), audio}}

	cat := core.DefaultCatalog()
	knobs := adapt.NewEngine(cfg).Knobs()
	keys := map[basePassKey]bool{}
	var want [2][]*Result
	for _, combo := range combos {
		base, err := combo.app.Wake.Validate(cat)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := adapt.Reparameterize(cat, base, knobs)
		if err != nil {
			t.Fatal(err)
		}
		keys[basePassKey{tr: combo.tr, text: ir.CompileToText(plan), prec: knobs.Precision}] = true
		for a, frozen := range []bool{true, false} {
			r, err := AdaptiveSidewinder{Config: cfg, Frozen: frozen}.Run(combo.tr, combo.app)
			if err != nil {
				t.Fatal(err)
			}
			want[a] = append(want[a], r)
		}
	}

	static, adaptive := AdaptiveArms(cfg)
	const callers = 32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k, a := c%len(combos), c/len(combos)%2
			arm := []AdaptiveSidewinder{static, adaptive}[a]
			got, err := arm.Run(combos[k].tr, combos[k].app)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			if !sameAdaptiveResult(got, want[a][k]) {
				t.Errorf("caller %d: %s/%s differs from its standalone run", c, arm.Name(), combos[k].app.Name)
			}
		}(c)
	}
	wg.Wait()
	if len(static.passes.entries) != len(keys) {
		t.Errorf("%d shared passes, the runs have %d distinct keys", len(static.passes.entries), len(keys))
	}
	for k := range static.passes.entries {
		if !keys[k] {
			t.Errorf("shared pass under an unexpected key (%s, prec %d)", k.tr.Name, k.prec)
		}
	}

	// Hammer one memo from many goroutines over a few keys.
	m := newOnceMemo[basePassKey, basePass]()
	const nKeys = 3
	var runs [nKeys]atomic.Int32
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := c % nKeys
			p, err := m.get(basePassKey{text: fmt.Sprint(k)}, func() (basePass, error) {
				runs[k].Add(1)
				return basePass{offs: []int{0, k}}, nil
			})
			if err != nil || p.offs[1] != k {
				t.Errorf("caller %d: got %+v, %v", c, p, err)
			}
		}(c)
	}
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d ran its pass %d times, want once", k, n)
		}
	}
}
