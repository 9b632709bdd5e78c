package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidewinder/internal/interp"
	"sidewinder/internal/ir"
	"sidewinder/internal/sensor"
	"sidewinder/internal/telemetry"
	"sidewinder/internal/tracegen"
)

// memoSweepConfigs is a four-mix sweep over the small trace pools, in the
// shape of eval.FleetCapacity: mixes 1, 2, 4 and 6, one seed each.
func memoSweepConfigs(t *testing.T, prec interp.Precision, noCSE bool, workers int) []FleetRunConfig {
	t.Helper()
	accel, audio := fleetTraces(t)
	var cfgs []FleetRunConfig
	for i, m := range []int{1, 2, 4, 6} {
		cfgs = append(cfgs, FleetRunConfig{
			Devices: 12, AppsPerDevice: m, Seed: 3 + int64(i)*0x5EED, Workers: workers,
			Accel: accel, Audio: audio, Precision: prec, DisableCSE: noCSE,
		})
	}
	return cfgs
}

// fleetMemo returns a fresh replay memo.
func fleetMemo() *onceMemo[fleetKey, fleetReplay] { return newOnceMemo[fleetKey, fleetReplay]() }

// testPools returns freshly validated app pools.
func testPools(t *testing.T) fleetPools {
	t.Helper()
	pools, err := newFleetPools()
	if err != nil {
		t.Fatal(err)
	}
	return pools
}

// cellRNG is the RNG fleetSweep gives cell i of a population.
func cellRNG(cfg FleetRunConfig, i int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + int64(i)*fleetCellSeed))
}

// TestFleetSweepMatchesUnmemoizedCells: every cell of a memoized sweep
// equals the same cell replayed on its own, with a memo of its own, field
// by field and its phone energy split bit for bit, in both precisions and
// with the DAG compile pass ablated. The sweep must really share replays,
// or the comparison proves nothing, and the plans its cells share must
// come out of the parallel sweep as they went in (-race also watches
// them).
func TestFleetSweepMatchesUnmemoizedCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prec  interp.Precision
		noCSE bool
	}{
		{"float64", interp.Float64, false},
		{"q15", interp.Q15, false},
		{"nocse", interp.Float64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := memoSweepConfigs(t, tc.prec, tc.noCSE, 4)
			pools, memo := testPools(t), fleetMemo()
			res, err := fleetSweep(cfgs, pools, memo)
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range slices.Concat(pools.accel, pools.audio) {
				if got := ir.CompileToText(app.plan); got != app.text {
					t.Errorf("%s: the sweep changed the shared plan:\n%s\nwas\n%s", app.name, got, app.text)
				}
			}
			hubCells := 0
			for j, cfg := range cfgs {
				for i, got := range res[j].Cells {
					want, err := fleetCell(cfg, testPools(t), cellRNG(cfg, i), fleetMemo())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("mix %d cell %d: memoized\n%+v\nunmemoized\n%+v", cfg.AppsPerDevice, i, got, want)
					}
					for s := range got.PhoneStateMJ {
						if math.Float64bits(got.PhoneStateMJ[s]) != math.Float64bits(want.PhoneStateMJ[s]) {
							t.Errorf("mix %d cell %d: state %d energy %v, unmemoized %v",
								cfg.AppsPerDevice, i, s, got.PhoneStateMJ[s], want.PhoneStateMJ[s])
						}
					}
					if got.Admitted > 0 {
						hubCells++
					}
				}
			}
			if len(memo.entries) >= hubCells {
				t.Errorf("%d replays for %d hub cells: the sweep shares nothing", len(memo.entries), hubCells)
			}
		})
	}
}

// TestFleetSweepMatchesFleetRun: each population of a sweep, ledger
// deposits included, is exactly what FleetRun returns for its config.
func TestFleetSweepMatchesFleetRun(t *testing.T) {
	cfgs := memoSweepConfigs(t, interp.Float64, false, 2)
	sweptLed, aloneLed := telemetry.NewLedger(), telemetry.NewLedger()
	for j := range cfgs {
		cfgs[j].Telemetry = telemetry.Set{Ledger: sweptLed}
	}
	swept, err := FleetSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for j, cfg := range cfgs {
		cfg.Telemetry = telemetry.Set{Ledger: aloneLed}
		alone, err := FleetRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[j], alone) {
			t.Errorf("mix %d: sweep and FleetRun differ", cfg.AppsPerDevice)
		}
	}
	if s, a := sweptLed.Snapshot(), aloneLed.Snapshot(); !reflect.DeepEqual(s, a) {
		t.Errorf("sweep ledger %+v, FleetRun ledgers %+v", s, a)
	}
}

// TestFleetKeyIgnoresOrderAndDuplicates pins the memo key's soundness: an
// admitted set permuted and given a duplicate has the same key and replays
// to the same wakes and energy. The accel mix joins channels (transitions
// reads ACC_Y and ACC_Z) and permuting it changes the channel push order;
// the audio mix carries the siren chain.
func TestFleetKeyIgnoresOrderAndDuplicates(t *testing.T) {
	accel, _ := fleetTraces(t)
	// An event-dense audio trace, so every audio condition fires.
	acfg := tracegen.NewAudioConfig(7, 30*time.Second, tracegen.OfficeAudio)
	acfg.MusicFraction, acfg.SpeechFraction, acfg.SirenFraction, acfg.PhraseFraction = 0.15, 0.15, 0.15, 0.05
	audio, err := tracegen.Audio(acfg)
	if err != nil {
		t.Fatal(err)
	}
	pools := testPools(t)
	for _, tc := range []struct {
		tr   *sensor.Trace
		apps []fleetApp
	}{
		{accel[1], pools.accel},
		{audio, pools.audio},
	} {
		shuffled := []fleetApp{tc.apps[2], tc.apps[0], tc.apps[1], tc.apps[0]}
		for _, prec := range []interp.Precision{interp.Float64, interp.Q15} {
			for _, noCSE := range []bool{false, true} {
				cfg := FleetRunConfig{Precision: prec, DisableCSE: noCSE}
				replay := func(admitted []fleetApp) (fleetKey, fleetReplay) {
					plans := plansOf(admitted)
					chs := planChannels(plans)
					data, err := traceChannels(tc.tr, chs, "the test mix")
					if err != nil {
						t.Fatal(err)
					}
					dur := float64(tc.tr.Len()) * (1 / tc.tr.RateHz)
					r, err := replayAdmitted(cfg, tc.tr, dur, plans, chs, data)
					if err != nil {
						t.Fatal(err)
					}
					return fleetKeyOf(tc.tr, admitted), r
				}
				k1, r1 := replay(tc.apps)
				k2, r2 := replay(shuffled)
				name := fmt.Sprintf("%s prec=%d nocse=%v", tc.tr.Name, prec, noCSE)
				if k1 != k2 {
					t.Errorf("%s: permuted set has another key", name)
				}
				if r1 != r2 {
					t.Errorf("%s: permuted set replays to %+v, want %+v", name, r2, r1)
				}
				if r1.wakes == 0 {
					t.Errorf("%s: no wakes; the comparison is vacuous", name)
				}
			}
		}
		if plans := plansOf(tc.apps); reflect.DeepEqual(planChannels(plans), planChannels(plansOf(shuffled))) && len(planChannels(plans)) > 1 {
			t.Errorf("%s: permuting did not change the channel order", tc.tr.Name)
		}
	}
}

// TestFleetSweepReplaysEachKeyOnce: a parallel sweep holds one replay per
// distinct (trace, admitted set) key of its cells, derived here from the
// cells' own placements, and the memo runs each key's replay exactly once
// however many goroutines ask for it at the same time.
func TestFleetSweepReplaysEachKeyOnce(t *testing.T) {
	cfgs := memoSweepConfigs(t, interp.Float64, false, 4)
	pools, memo := testPools(t), fleetMemo()
	if _, err := fleetSweep(cfgs, pools, memo); err != nil {
		t.Fatal(err)
	}
	keys := map[fleetKey]bool{}
	for _, cfg := range cfgs {
		for i := 0; i < cfg.Devices; i++ {
			_, tr, admitted, err := placeFleetCell(cfg, pools, cellRNG(cfg, i))
			if err != nil {
				t.Fatal(err)
			}
			keys[fleetKeyOf(tr, admitted)] = true
		}
	}
	if len(memo.entries) != len(keys) {
		t.Errorf("memo holds %d replays, cells have %d distinct keys", len(memo.entries), len(keys))
	}

	// Hammer one memo from many goroutines over a few keys.
	m := fleetMemo()
	const nKeys, callers = 3, 32
	var runs [nKeys]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := c % nKeys
			r, err := m.get(fleetKey{plans: fmt.Sprint(k)}, func() (fleetReplay, error) {
				runs[k].Add(1)
				return fleetReplay{wakes: k}, nil
			})
			if err != nil || r.wakes != k {
				t.Errorf("caller %d: got %+v, %v", c, r, err)
			}
		}(c)
	}
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d replayed %d times, want once", k, n)
		}
	}
}

// TestFleetMissingChannelNamesEachCellsMix: when a trace lacks a channel,
// the error names the failing cell's own app mix, even when a cell with
// another mix shared its (trace, admitted set) key and failed first.
func TestFleetMissingChannelNamesEachCellsMix(t *testing.T) {
	accel, _ := fleetTraces(t)
	// Audio mixes over an accel trace: every cell lacks the microphone.
	cfg := FleetRunConfig{Devices: 24, AppsPerDevice: 2, Seed: 5, Workers: 1, Audio: accel[:1]}
	pools, memo := testPools(t), fleetMemo()
	mixOf := map[fleetKey]string{}
	shared := false
	for i := 0; i < cfg.Devices; i++ {
		cell, err := fleetCell(cfg, pools, cellRNG(cfg, i), memo)
		if err == nil {
			t.Fatalf("cell %d: replayed audio apps over an accel trace", i)
		}
		mix := strings.Join(cell.Apps, "+")
		if want := "required by the fleet mix " + mix; !strings.HasSuffix(err.Error(), want) {
			t.Errorf("cell %d: error %q does not end %q", i, err, want)
		}
		_, tr, admitted, err := placeFleetCell(cfg, pools, cellRNG(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		k := fleetKeyOf(tr, admitted)
		if first, ok := mixOf[k]; ok && first != mix {
			shared = true
		} else if !ok {
			mixOf[k] = mix
		}
	}
	if !shared {
		t.Error("no two cells with different mixes share a key; the check is vacuous")
	}
	if _, err := FleetRun(cfg); err == nil || !strings.Contains(err.Error(), "lacks channel") {
		t.Errorf("FleetRun error = %v, want a missing channel", err)
	}
}
