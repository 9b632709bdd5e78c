package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"sidewinder/internal/apps"
	"sidewinder/internal/core"
	"sidewinder/internal/hub"
	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/parallel"
	"sidewinder/internal/power"
	"sidewinder/internal/sched"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
)

// Fleet-scale capacity replay: a seeded population of N phones, each
// running M concurrently registered applications against one hub. Every
// phone draws its app mix, priorities and sensor trace from its own
// deterministic RNG, places the mix with one sched.Place call on the
// cheapest hub device that admits everything (falling back to the
// most capable device plus phone-side degradation when none does), then
// replays the admitted set on a shared merged interpreter while the
// degraded remainder is billed as duty-cycled fallback sensing.
//
// The sweep is an analytic population model on top of the interpreter —
// no wire replay — so a cell's cost is dominated by its hub replay, and
// cells fan out over the bounded worker pool. Cells that replay the same
// admitted set over the same trace share one replay (FleetSweep). Cell
// RNGs are derived from (Seed, cell index) alone and ledger deposits
// happen after the fan-out in cell order, so results are byte-identical at
// any worker count.

// FleetRunConfig parameterizes one fleet sweep.
type FleetRunConfig struct {
	// Devices is the population size N (required, > 0).
	Devices int
	// AppsPerDevice is the app mix size M per phone (required, > 0).
	// Draws are with repetition; duplicate conditions share their whole
	// chain on the hub and cost nothing extra.
	AppsPerDevice int
	// Seed derives every cell's RNG. Same seed, same population.
	Seed int64
	// Workers bounds the cell fan-out (<= 0: one per CPU).
	Workers int

	// Accel and Audio are the candidate single-modality traces a cell may
	// draw. At least one list must be non-empty; a cell first draws its
	// modality (from the non-empty lists), then a trace within it.
	Accel []*sensor.Trace
	Audio []*sensor.Trace

	// Precision selects the hub interpreter's numeric substrate for every
	// cell (default float64).
	Precision interp.Precision

	// DisableCSE turns off the DAG compile pass's cross-app sharing,
	// folding and fusion: the placement bills every condition standalone
	// and the hub executes one instance per plan node. The ablation knob
	// for quantifying what common-subgraph elimination buys the fleet.
	DisableCSE bool

	// Telemetry, when enabled, deposits every cell's energy split into
	// the ledger (phone states, phone.fallback for degraded sensing, hub
	// device draw) in cell order.
	Telemetry telemetry.Set
}

// compileOptions returns the DAG compile options the fleet both places
// and replays under: the shared graph the hub runs, or with DisableCSE
// every rewrite off, one instance per plan node.
func (cfg FleetRunConfig) compileOptions() ir.CompileOptions {
	if cfg.DisableCSE {
		return ir.NoOpt()
	}
	return ir.CompileOptions{}
}

// FleetCell reports one phone of the population.
type FleetCell struct {
	Device     string   // hub device the mix was placed on
	Modality   string   // "accel" or "audio"
	Trace      string   // trace the cell replayed
	Apps       []string // drawn app names, in draw order
	Priorities []int    // matching priorities (0 = lowest)

	Admitted    int // conditions resident on the hub
	Degraded    int // conditions demoted to phone fallback
	SharedNodes int // pipeline nodes saved by cross-app sharing
	CycleFrac   float64
	RAMFrac     float64
	Wakes       int

	DurationSec      float64
	PhoneEnergyMJ    float64
	FallbackEnergyMJ float64
	HubEnergyMJ      float64
	TotalMJ          float64
	AvgMW            float64

	// PhoneStateMJ splits PhoneEnergyMJ across the phone's four power
	// states, indexed by power.State (Asleep, WakingUp, Awake,
	// FallingAsleep). The four entries sum to PhoneEnergyMJ exactly, so a
	// streaming replay (the fleet daemon's load generator) can re-deposit
	// the precise per-component values batch FleetRun deposits.
	PhoneStateMJ [4]float64
}

// FleetResult aggregates the population.
type FleetResult struct {
	Cells []FleetCell

	Conditions int // N * M
	Admitted   int
	Degraded   int

	MeanMW float64
	P50MW  float64
	P90MW  float64
}

// AdmissionRate is the fraction of registered conditions resident on hubs.
func (r *FleetResult) AdmissionRate() float64 {
	if r.Conditions == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(r.Conditions)
}

// DegradationRate is 1 - AdmissionRate.
func (r *FleetResult) DegradationRate() float64 {
	if r.Conditions == 0 {
		return 0
	}
	return float64(r.Degraded) / float64(r.Conditions)
}

// fleetCellSeed spreads cell indices across the seed space (64-bit golden
// ratio, truncated to keep the constant an int64).
const fleetCellSeed = 0x2545F4914F6CDD1D

// DepositEnergy attributes the cell's recorded energy split to the
// ledger: the four phone states, phone-side fallback, then the hub
// device, in that fixed order. FleetRun calls it per cell in cell order;
// the fleet daemon's identity test replays the same deposits over the
// wire and compares per-device totals bit for bit.
func (c *FleetCell) DepositEnergy(led *telemetry.Ledger) {
	led.AddEnergyMJ(telemetry.PhoneAsleep, c.PhoneStateMJ[power.Asleep])
	led.AddEnergyMJ(telemetry.PhoneWaking, c.PhoneStateMJ[power.WakingUp])
	led.AddEnergyMJ(telemetry.PhoneAwake, c.PhoneStateMJ[power.Awake])
	led.AddEnergyMJ(telemetry.PhoneFallingAsleep, c.PhoneStateMJ[power.FallingAsleep])
	led.AddEnergyMJ(telemetry.PhoneFallback, c.FallbackEnergyMJ)
	led.AddEnergyMJ(telemetry.HubDevice, c.HubEnergyMJ)
}

// FleetRun sweeps the population and returns per-cell placements and the
// aggregate admission/energy picture. It is FleetSweep over one mix.
func FleetRun(cfg FleetRunConfig) (*FleetResult, error) {
	res, err := FleetSweep([]FleetRunConfig{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// FleetSweep sweeps several populations, one per config and typically one
// per app-mix size, through one cell fan-out and returns their results in
// config order. Each result, ledger deposits included, is exactly what
// FleetRun returns for its config. The configs must agree on Workers,
// Precision and DisableCSE, which bound the one fan-out and shape every
// hub replay.
//
// A phone's replay depends only on its trace and on the set of plans its
// hub admitted: the hub decides the wakes and the phone only replays them
// (paper §3, §4.2). So cells that share a (trace, admitted set) key, within
// a population or across populations, share one replay; device and
// fallback energy stay per cell. Each pool app is validated, and its
// plan's IR text rendered, once per call. The shared replays and plans
// live for one call.
func FleetSweep(cfgs []FleetRunConfig) ([]*FleetResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: fleet needs at least one population")
	}
	for _, cfg := range cfgs {
		if cfg.Devices <= 0 {
			return nil, fmt.Errorf("sim: fleet needs a positive population size")
		}
		if cfg.AppsPerDevice <= 0 {
			return nil, fmt.Errorf("sim: fleet needs a positive app mix size")
		}
		if len(cfg.Accel) == 0 && len(cfg.Audio) == 0 {
			return nil, fmt.Errorf("sim: fleet needs at least one candidate trace")
		}
		if cfg.Workers != cfgs[0].Workers || cfg.Precision != cfgs[0].Precision || cfg.DisableCSE != cfgs[0].DisableCSE {
			return nil, fmt.Errorf("sim: fleet populations of one sweep must agree on workers, precision and CSE")
		}
	}
	pools, err := newFleetPools()
	if err != nil {
		return nil, err
	}
	return fleetSweep(cfgs, pools, newOnceMemo[fleetKey, fleetReplay]())
}

// fleetSweep fans every cell of every population out at once, drawing
// apps from pools and sharing replays through memo, then assembles the
// results population by population. Cell k of the fan is cell k-off[j] of
// population j.
func fleetSweep(cfgs []FleetRunConfig, pools fleetPools, memo *onceMemo[fleetKey, fleetReplay]) ([]*FleetResult, error) {
	off := make([]int, len(cfgs)+1)
	for j, cfg := range cfgs {
		off[j+1] = off[j] + cfg.Devices
	}
	outs, err := parallel.Map(cfgs[0].Workers, off[len(cfgs)], func(k int) (FleetCell, error) {
		j := sort.SearchInts(off, k+1) - 1
		rng := rand.New(rand.NewSource(cfgs[j].Seed + int64(k-off[j])*fleetCellSeed))
		return fleetCell(cfgs[j], pools, rng, memo)
	})
	if err != nil {
		return nil, err
	}

	results := make([]*FleetResult, len(cfgs))
	for j, cfg := range cfgs {
		res := &FleetResult{Cells: outs[off[j]:off[j+1]:off[j+1]]}
		led := cfg.Telemetry.Ledger
		var totalMW []float64
		for _, cell := range res.Cells {
			res.Conditions += cell.Admitted + cell.Degraded
			res.Admitted += cell.Admitted
			res.Degraded += cell.Degraded
			totalMW = append(totalMW, cell.AvgMW)
			// Ledger deposits run here, population by population in cell
			// order, never inside the parallel fan: float accumulation
			// order is part of the determinism contract. The deposits come
			// from the cell's recorded split, which is exactly what a
			// streaming replay of the cell must reproduce on the fleet
			// daemon's ledger.
			cell.DepositEnergy(led)
		}
		res.MeanMW = mean(totalMW)
		res.P50MW = quantile(totalMW, 0.50)
		res.P90MW = quantile(totalMW, 0.90)
		results[j] = res
	}
	return results, nil
}

// fleetCell draws, places and replays one phone of the population.
func fleetCell(cfg FleetRunConfig, pools fleetPools, rng *rand.Rand, memo *onceMemo[fleetKey, fleetReplay]) (FleetCell, error) {
	cell, tr, admitted, err := placeFleetCell(cfg, pools, rng)
	if err != nil {
		return cell, err
	}
	hubPlans := plansOf(admitted)
	// The channels are resolved per cell, before the memo, so a missing
	// channel names this cell's own mix.
	chs := planChannels(hubPlans)
	data, err := traceChannels(tr, chs, "the fleet mix "+strings.Join(cell.Apps, "+"))
	if err != nil {
		return cell, err
	}
	r, err := memo.get(fleetKeyOf(tr, admitted), func() (fleetReplay, error) {
		return replayAdmitted(cfg, tr, cell.DurationSec, hubPlans, chs, data)
	})
	if err != nil {
		return cell, err
	}
	cell.Wakes = r.wakes
	cell.PhoneStateMJ = r.stateMJ
	cell.PhoneEnergyMJ = r.phoneMJ

	if cell.Degraded > 0 {
		// One duty-cycle schedule covers all degraded conditions on this
		// phone: every wake window examines every degraded condition's
		// buffered data. Billed as the draw ABOVE the asleep baseline the
		// phone machine already accounts, so nothing is double-counted.
		profile := power.Nexus4()
		cell.FallbackEnergyMJ = (fallbackAvgMW(FallbackDutyCycle, profile) - profile.AsleepMW) * cell.DurationSec
	}
	cell.TotalMJ = cell.PhoneEnergyMJ + cell.FallbackEnergyMJ + cell.HubEnergyMJ
	if cell.DurationSec > 0 {
		cell.AvgMW = cell.TotalMJ / cell.DurationSec
	}
	return cell, nil
}

// fleetApp is one pool application as a sweep draws it: its wake
// condition validated and its plan's IR text rendered once per sweep. The
// plan is shared by every cell that draws the app and never mutated.
type fleetApp struct {
	name string
	plan *core.Plan
	text string
}

// fleetPools holds one sweep's accel and audio app pools, in the order
// apps.AccelApps and apps.AudioApps list them.
type fleetPools struct{ accel, audio []fleetApp }

// newFleetPools validates every pool application once.
func newFleetPools() (fleetPools, error) {
	cat := core.DefaultCatalog()
	pool := func(list []*apps.App) ([]fleetApp, error) {
		out := make([]fleetApp, len(list))
		for i, app := range list {
			plan, err := app.Wake.Validate(cat)
			if err != nil {
				return nil, fmt.Errorf("sim: fleet validating %s: %w", app.Name, err)
			}
			out[i] = fleetApp{name: app.Name, plan: plan, text: ir.CompileToText(plan)}
		}
		return out, nil
	}
	accel, err := pool(apps.AccelApps())
	if err != nil {
		return fleetPools{}, err
	}
	audio, err := pool(apps.AudioApps())
	if err != nil {
		return fleetPools{}, err
	}
	return fleetPools{accel: accel, audio: audio}, nil
}

// placeFleetCell draws one phone's modality, trace and app mix from pools
// and places the mix on a hub device. It returns the cell with its draw,
// placement, duration and hub energy filled in, the trace, and the
// admitted apps in ascending condition-ID order.
func placeFleetCell(cfg FleetRunConfig, pools fleetPools, rng *rand.Rand) (FleetCell, *sensor.Trace, []fleetApp, error) {
	var cell FleetCell

	// Draw the modality first: traces are single-modality, so the app mix
	// must agree with the trace before either is chosen.
	pool, traces := pools.accel, cfg.Accel
	cell.Modality = "accel"
	if len(cfg.Accel) == 0 || (len(cfg.Audio) > 0 && rng.Intn(2) == 1) {
		pool, traces = pools.audio, cfg.Audio
		cell.Modality = "audio"
	}
	tr := traces[rng.Intn(len(traces))]
	cell.Trace = tr.Name

	drawn := make([]fleetApp, 0, cfg.AppsPerDevice)
	for j := 0; j < cfg.AppsPerDevice; j++ {
		app := pool[rng.Intn(len(pool))]
		drawn = append(drawn, app)
		cell.Apps = append(cell.Apps, app.name)
		cell.Priorities = append(cell.Priorities, rng.Intn(3))
	}

	// Place the mix on the cheapest device that admits everything; when
	// none does, the most capable device carries what fits and the rest
	// degrades.
	r := sched.Place(hub.Devices(), plansOf(drawn), cell.Priorities, cfg.compileOptions())
	cell.Device = r.Device.Name
	cell.Admitted = len(r.Admitted)
	cell.Degraded = len(drawn) - len(r.Admitted)
	cell.CycleFrac, cell.RAMFrac, cell.SharedNodes = r.CycleFrac, r.RAMFrac, r.SharedNodes

	cell.DurationSec = float64(tr.Len()) * (1 / tr.RateHz)
	admitted := make([]fleetApp, len(r.Admitted))
	for k, j := range r.Admitted {
		admitted[k] = drawn[j]
	}
	if len(admitted) > 0 {
		cell.HubEnergyMJ = r.Device.ActivePowerMW * cell.DurationSec
	}
	return cell, tr, admitted, nil
}

// plansOf returns the apps' plans, in order.
func plansOf(list []fleetApp) []*core.Plan {
	plans := make([]*core.Plan, len(list))
	for i, app := range list {
		plans[i] = app.plan
	}
	return plans
}

// planChannels returns the union of the plans' channels, in first-use
// order.
func planChannels(plans []*core.Plan) []core.SensorChannel {
	var chs []core.SensorChannel
	for _, plan := range plans {
		for _, ch := range plan.Channels {
			if !slices.Contains(chs, ch) {
				chs = append(chs, ch)
			}
		}
	}
	return chs
}

// fleetReplay is the phone side of replaying one admitted set over one
// trace: the hub's firings and the phone's energy split by power.State,
// with its total.
type fleetReplay struct {
	wakes   int
	stateMJ [4]float64
	phoneMJ float64
}

// replayAdmitted replays the admitted set over the trace (durSec long, chs
// and data its channels) and returns the phone's side. With nothing
// admitted the phone sleeps through the whole trace (fallback sensing is
// billed per cell) and the hub stays unpowered.
func replayAdmitted(cfg FleetRunConfig, tr *sensor.Trace, durSec float64, hubPlans []*core.Plan, chs []core.SensorChannel, data [][]float64) (fleetReplay, error) {
	var r fleetReplay
	ph := power.NewPhone(power.Nexus4())
	if len(hubPlans) == 0 {
		ph.Advance(durSec)
	} else {
		// The admitted set executes as one DAG-compiled shared plan:
		// identical subgraphs run once, exactly as the placement billed
		// them.
		sp, err := ir.CompilePlans(core.DefaultCatalog(), cfg.compileOptions(), hubPlans...)
		if err != nil {
			return r, err
		}
		m, err := interp.NewShared(cfg.Precision, sp)
		if err != nil {
			return r, err
		}
		w := newWakeWindow(ph, tr.RateHz, 0, int(swIdleHoldSec*tr.RateHz))
		visit := func(i int, hit bool) {
			if hit {
				r.wakes++
				w.fire(i)
			}
		}
		replayHub(w, tr.Len(), func(f fireList, base, end int) fireList {
			m.Run(chs, data, base, end, f.add)
			return f.set()
		}, visit, nil)
	}
	for s := range r.stateMJ {
		r.stateMJ[s] = ph.StateEnergyMJ(power.State(s))
	}
	r.phoneMJ = ph.EnergyMJ()
	return r, nil
}

// fleetKey identifies a replay: the trace, and the admitted set as the
// sorted, duplicate-free IR texts of its plans. Order and duplicates
// within an admitted set change neither the merged hub's firings (its fire
// list is the sorted union of every plan's) nor, so, the phone's replay.
// Precision and DisableCSE are constant across one sweep and stay out.
type fleetKey struct {
	tr    *sensor.Trace
	plans string
}

// fleetKeyOf returns the key of replaying the admitted apps over tr.
func fleetKeyOf(tr *sensor.Trace, admitted []fleetApp) fleetKey {
	texts := make([]string, len(admitted))
	for i, app := range admitted {
		texts[i] = app.text
	}
	slices.Sort(texts)
	return fleetKey{tr: tr, plans: strings.Join(slices.Compact(texts), "\x00")}
}

// mean of a sample (0 for empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the nearest-rank q-quantile of a sample (0 for empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
