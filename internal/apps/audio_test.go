package apps

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

// referenceSirens is the one-shot siren classifier detectSirens replaced:
// a fresh dsp.HighPassFFT and dsp.PeakToMeanRatio per window.
func referenceSirens(tr *sensor.Trace, start, end int) []sensor.Event {
	return windowedSustained(tr, start, end, "siren", sirenSustainWins, func(win []float64) bool {
		filtered, err := dsp.HighPassFFT(win, sirenHighPassHz, tr.RateHz)
		if err != nil {
			return false
		}
		ratio, freq, err := dsp.PeakToMeanRatio(filtered, tr.RateHz)
		if err != nil {
			return false
		}
		return ratio >= sirenTonality && freq >= sirenBandLo && freq <= sirenBandHi
	})
}

func noiseTrace(rate float64, n int) *sensor.Trace {
	rng := rand.New(rand.NewSource(5))
	mic := make([]float64, n)
	for i := range mic {
		mic[i] = 0.1 * rng.NormFloat64()
	}
	return &sensor.Trace{Name: "noise", RateHz: rate, Channels: map[core.SensorChannel][]float64{core.Mic: mic}}
}

// TestDetectSirensMatchesOneShotReference shows the block-filter detector
// with carried scratch reports exactly the reference's events: on a
// generated trace with sirens, on broadband noise, and on noise at a rate
// whose Nyquist lies below the cutoff, where NewBlockFilter refuses and
// detectSirens reports nothing.
func TestDetectSirensMatchesOneShotReference(t *testing.T) {
	sirens, err := tracegen.Audio(tracegen.NewAudioConfig(101, 5*time.Minute, tracegen.CoffeeShopAudio))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		tr        *sensor.Trace
		wantEvent bool
	}{
		{"sirens", sirens, true},
		{"noise", noiseTrace(core.AudioRateHz, 200*audioWin), false},
		{"noise below cutoff rate", noiseTrace(1000, 50*audioWin), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := detectSirens(tc.tr, 0, tc.tr.Len())
			want := referenceSirens(tc.tr, 0, tc.tr.Len())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("detectSirens = %v\nreference  = %v", got, want)
			}
			if tc.wantEvent && len(got) == 0 {
				t.Fatal("no siren detected; the comparison is vacuous")
			}
		})
	}
}
