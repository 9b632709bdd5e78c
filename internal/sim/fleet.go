package sim

import (
	"fmt"
	"math/rand"
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
// deterministic RNG, runs the admission controller to place the mix on
// the cheapest hub device that admits everything (falling back to the
// most capable device plus phone-side degradation when none does), then
// replays the admitted set on a shared merged interpreter while the
// degraded remainder is billed as duty-cycled fallback sensing.
//
// The sweep is an analytic population model on top of the interpreter —
// no wire replay — so a cell's cost is dominated by the trace length, and
// cells fan out over the bounded worker pool. Cell RNGs are derived from
// (Seed, cell index) alone and ledger deposits happen after the fan-out
// in cell order, so results are byte-identical at any worker count.

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
	// folding and fusion: the scheduler bills every condition standalone
	// and the hub executes one instance per plan node. The ablation knob
	// for quantifying what common-subgraph elimination buys the fleet.
	DisableCSE bool

	// Telemetry, when enabled, deposits every cell's energy split into
	// the ledger (phone states, phone.fallback for degraded sensing, hub
	// device draw) in cell order.
	Telemetry telemetry.Set
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
// aggregate admission/energy picture.
func FleetRun(cfg FleetRunConfig) (*FleetResult, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("sim: fleet needs a positive population size")
	}
	if cfg.AppsPerDevice <= 0 {
		return nil, fmt.Errorf("sim: fleet needs a positive app mix size")
	}
	if len(cfg.Accel) == 0 && len(cfg.Audio) == 0 {
		return nil, fmt.Errorf("sim: fleet needs at least one candidate trace")
	}
	outs, err := parallel.Map(cfg.Workers, cfg.Devices, func(i int) (FleetCell, error) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*fleetCellSeed))
		return fleetCell(cfg, rng)
	})
	if err != nil {
		return nil, err
	}

	res := &FleetResult{Cells: make([]FleetCell, 0, len(outs))}
	led := cfg.Telemetry.Ledger
	var totalMW []float64
	for _, cell := range outs {
		res.Cells = append(res.Cells, cell)
		res.Conditions += cell.Admitted + cell.Degraded
		res.Admitted += cell.Admitted
		res.Degraded += cell.Degraded
		totalMW = append(totalMW, cell.AvgMW)
		// Ledger deposits run here, in cell order, never inside the
		// parallel fan: float accumulation order is part of the
		// determinism contract. The deposits come from the cell's recorded
		// split, which is exactly what a streaming replay of the cell must
		// reproduce on the fleet daemon's ledger.
		cell.DepositEnergy(led)
	}
	res.MeanMW = mean(totalMW)
	res.P50MW = quantile(totalMW, 0.50)
	res.P90MW = quantile(totalMW, 0.90)
	return res, nil
}

// fleetCell draws and replays one phone of the population.
func fleetCell(cfg FleetRunConfig, rng *rand.Rand) (FleetCell, error) {
	var cell FleetCell

	// Draw the modality first: traces are single-modality, so the app mix
	// must agree with the trace before either is chosen.
	pool, traces := apps.AccelApps(), cfg.Accel
	cell.Modality = "accel"
	if len(cfg.Accel) == 0 || (len(cfg.Audio) > 0 && rng.Intn(2) == 1) {
		pool, traces = apps.AudioApps(), cfg.Audio
		cell.Modality = "audio"
	}
	tr := traces[rng.Intn(len(traces))]
	cell.Trace = tr.Name

	cat := core.DefaultCatalog()
	plans := make([]*core.Plan, 0, cfg.AppsPerDevice)
	for j := 0; j < cfg.AppsPerDevice; j++ {
		app := pool[rng.Intn(len(pool))]
		plan, err := app.Wake.Validate(cat)
		if err != nil {
			return cell, fmt.Errorf("sim: fleet validating %s: %w", app.Name, err)
		}
		plans = append(plans, plan)
		cell.Apps = append(cell.Apps, app.Name)
		cell.Priorities = append(cell.Priorities, rng.Intn(3))
	}

	// Place the mix on the cheapest device that admits everything; when
	// none does, the most capable device carries what fits and the rest
	// degrades.
	var s *sched.Scheduler
	var dev hub.Device
	for _, cand := range hub.Devices() {
		cs := sched.NewWithOptions(cand, sched.Options{DisableSharing: cfg.DisableCSE})
		for j, plan := range plans {
			if _, err := cs.Add(uint16(j+1), plan, cell.Priorities[j]); err != nil {
				return cell, err
			}
		}
		s, dev = cs, cand
		if len(cs.FallbackSet()) == 0 {
			break
		}
	}
	cell.Device = dev.Name
	cell.Admitted = len(s.HubSet())
	cell.Degraded = len(s.FallbackSet())
	cell.CycleFrac, cell.RAMFrac, cell.SharedNodes = s.Utilization()

	profile := power.Nexus4()
	ph := power.NewPhone(profile)
	dt := 1 / tr.RateHz
	cell.DurationSec = float64(tr.Len()) * dt

	hubPlans := s.HubPlans()
	if len(hubPlans) > 0 {
		// The admitted set executes as one DAG-compiled shared plan:
		// identical subgraphs run once, exactly as the scheduler billed
		// them. With CSE disabled the pass is fully ablated and every
		// plan node gets its own instance.
		copts := ir.CompileOptions{}
		if cfg.DisableCSE {
			copts = ir.NoOpt()
		}
		sp, err := ir.CompilePlans(cat, copts, hubPlans...)
		if err != nil {
			return cell, err
		}
		m, err := interp.NewShared(cfg.Precision, sp)
		if err != nil {
			return cell, err
		}
		// Union of the admitted plans' channels, in first-use order.
		var chs []core.SensorChannel
		seen := map[core.SensorChannel]bool{}
		for _, plan := range hubPlans {
			for _, ch := range plan.Channels {
				if !seen[ch] {
					seen[ch] = true
					chs = append(chs, ch)
				}
			}
		}
		data, err := traceChannels(tr, chs, "the fleet mix "+strings.Join(cell.Apps, "+"))
		if err != nil {
			return cell, err
		}

		n := tr.Len()
		w := newWakeWindow(ph, tr.RateHz, 0, int(swIdleHoldSec*tr.RateHz))
		visit := func(i int, hit bool) {
			if hit {
				cell.Wakes++
				w.fire(i)
			}
		}
		replayHub(w, n, func(f fireList, base, end int) fireList {
			m.Run(chs, data, base, end, f.add)
			return f.set()
		}, visit, nil)
		cell.HubEnergyMJ = dev.ActivePowerMW * cell.DurationSec
	} else {
		// Nothing on the hub: the phone sleeps through the whole trace
		// (fallback sensing is billed below) and the hub stays unpowered.
		ph.Advance(cell.DurationSec)
	}

	if cell.Degraded > 0 {
		// One duty-cycle schedule covers all degraded conditions on this
		// phone: every wake window examines every degraded condition's
		// buffered data. Billed as the draw ABOVE the asleep baseline the
		// phone machine already accounts, so nothing is double-counted.
		cell.FallbackEnergyMJ = (fallbackAvgMW(FallbackDutyCycle, profile) - profile.AsleepMW) * cell.DurationSec
	}

	cell.PhoneStateMJ = [4]float64{
		power.Asleep:        ph.StateEnergyMJ(power.Asleep),
		power.WakingUp:      ph.StateEnergyMJ(power.WakingUp),
		power.Awake:         ph.StateEnergyMJ(power.Awake),
		power.FallingAsleep: ph.StateEnergyMJ(power.FallingAsleep),
	}
	cell.PhoneEnergyMJ = ph.EnergyMJ()
	cell.TotalMJ = cell.PhoneEnergyMJ + cell.FallbackEnergyMJ + cell.HubEnergyMJ
	if cell.DurationSec > 0 {
		cell.AvgMW = cell.TotalMJ / cell.DurationSec
	}
	return cell, nil
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
