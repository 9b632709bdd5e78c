package apps

import (
	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/sensor"
)

// Audio application parameters. Window sizes are in samples at
// core.AudioRateHz (4 kHz): 1024 samples = 256 ms, long enough that one
// window spans more than a syllable, which is what separates speech's
// unstable zero-crossing profile from music's stable one. Thresholds were
// calibrated on generator output (see EXPERIMENTS.md).
const (
	audioWin = 1024

	// Siren detector (paper §3.7.2): 750 Hz high-pass, pitched sound in
	// [850, 1800] Hz lasting longer than 650 ms; at 256 ms windows the
	// sustain requirement rounds up to 4 windows (~1 s of wail, which a
	// sweeping siren easily satisfies while note changes in music rarely
	// do).
	sirenBandLo, sirenBandHi = 850.0, 1800.0
	sirenHighPassHz          = 750.0
	sirenTonality            = 6.5
	sirenSustainWins         = 4

	// Music Journal: high amplitude variance with a stable pitch
	// profile (low variance of per-sub-window zero-crossing rates).
	musicSubwindows = 8
	musicVarMin     = 0.015
	// Sirens are louder than ambient music; the upper variance bound
	// keeps the music condition from waking on them.
	musicVarMax    = 0.06
	musicZCRVarMax = 0.002
	musicSustain   = 3
	// The hub-side condition sustains each branch for 2 windows (512 ms)
	// so isolated voiced-speech windows, which can look pitch-stable, do
	// not wake the phone.
	musicWakeSustain = 3

	// Phrase Detection: speech has bursty amplitude and an unstable
	// zero-crossing profile (voiced/unvoiced alternation).
	speechVarMin      = 0.0015
	speechZCRVarMin   = 0.005
	speechSustain     = 2
	speechWakeSustain = 2
)

// Sirens detects emergency-vehicle sirens. Its FFT-based wake-up condition
// cannot run in real time on the MSP430, forcing the more powerful
// LM4F120 (paper §4.3 and Table 2's asterisk).
func Sirens() *App {
	wake := core.NewPipeline("sirens-wake")
	wake.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(sirenHighPassHz, audioWin)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(sirenBandLo, sirenBandHi, core.AudioRateHz)).
		Add(core.MinThresholdSustained(sirenTonality, sirenSustainWins)))
	return &App{
		Name:              "sirens",
		Label:             "siren",
		Channels:          []core.SensorChannel{core.Mic},
		Wake:              wake,
		Detector:          DetectorFunc(detectSirens),
		OracleMergeGapSec: 2,
		MatchTolSec:       1.0,
		PreBufferSec:      2,
	}
}

// detectSirens runs the paper's siren classifier: high-pass at 750 Hz,
// FFT per window, dominant-to-mean magnitude ratio, pitched sounds in
// [850, 1800] Hz sustained longer than 650 ms. One call owns one FFT block
// filter sized to the window and one pair of spectrum buffers, so scoring
// a window allocates nothing.
func detectSirens(tr *sensor.Trace, start, end int) []sensor.Event {
	hp, err := dsp.NewBlockFilter(dsp.HighPass, sirenHighPassHz, tr.RateHz, audioWin)
	if err != nil {
		// A rate the filter rejects puts every bin below the cutoff:
		// nothing passes it, so no window can score as a siren.
		return nil
	}
	var spec []complex128
	var mags []float64
	return windowedSustained(tr, start, end, "siren", sirenSustainWins, func(win []float64) bool {
		_, filtered, ok := hp.Consume(win)
		if !ok {
			return false
		}
		var ratio, freq float64
		var err error
		ratio, freq, spec, mags, err = dsp.PeakToMeanRatioInto(spec, mags, filtered, tr.RateHz)
		return err == nil && ratio >= sirenTonality && freq >= sirenBandLo && freq <= sirenBandHi
	})
}

// MusicJournal recognizes songs playing nearby; identification itself
// (Echoprint in the paper) happens off-device and is outside the energy
// model, so the classifier stops at music detection.
func MusicJournal() *App {
	wake := core.NewPipeline("music-wake")
	wake.AddBranch(
		core.NewBranch(core.Mic).
			Add(core.Window(audioWin, 0, "rectangular")).
			Add(core.Stat("variance")).
			Add(core.BandThresholdSustained(musicVarMin, musicVarMax, musicWakeSustain)),
		core.NewBranch(core.Mic).
			Add(core.Window(audioWin, 0, "rectangular")).
			Add(core.ZCRVariance(musicSubwindows)).
			Add(core.BandThresholdSustained(0, musicZCRVarMax, musicWakeSustain)),
	)
	wake.Add(core.And())
	return &App{
		Name:              "music",
		Label:             "music",
		Channels:          []core.SensorChannel{core.Mic},
		Wake:              wake,
		Detector:          DetectorFunc(detectMusic),
		OracleMergeGapSec: 2,
		MatchTolSec:       1.0,
		PreBufferSec:      2,
	}
}

// detectMusic classifies windows by the paper's two features: variance of
// the amplitude and variance of per-sub-window zero-crossing rates, with
// music requiring a stable pitch profile.
func detectMusic(tr *sensor.Trace, start, end int) []sensor.Event {
	return windowedSustained(tr, start, end, "music", musicSustain, func(win []float64) bool {
		v := dsp.Variance(win)
		zv := zcrVariance(win, musicSubwindows)
		return v >= musicVarMin && v <= musicVarMax && zv <= musicZCRVarMax
	})
}

// PhraseDetection listens for a spoken phrase of interest; speech-to-text
// (the Google Speech API in the paper) runs off-device after wake-up. The
// wake-up condition detects any speech, which is why Sidewinder wakes for
// ~5% of the trace while the oracle wakes for under 1% (paper §5.2).
func PhraseDetection() *App {
	wake := core.NewPipeline("phrase-wake")
	wake.AddBranch(
		core.NewBranch(core.Mic).
			Add(core.Window(audioWin, 0, "rectangular")).
			Add(core.Stat("variance")).
			Add(core.MinThresholdSustained(speechVarMin, speechWakeSustain)),
		core.NewBranch(core.Mic).
			Add(core.Window(audioWin, 0, "rectangular")).
			Add(core.ZCRVariance(musicSubwindows)).
			Add(core.MinThresholdSustained(speechZCRVarMin, speechWakeSustain)),
	)
	wake.Add(core.And())
	return &App{
		Name:              "phrase",
		Label:             "phrase",
		Channels:          []core.SensorChannel{core.Mic},
		Wake:              wake,
		Detector:          DetectorFunc(detectPhrase),
		OracleMergeGapSec: 2,
		MatchTolSec:       1.0,
		PreBufferSec:      2,
	}
}

// detectPhrase finds speech segments in the delivered data and "sends"
// them to the recognizer. The recognizer itself is simulated as exact: it
// reports the phrase when the processed speech actually contains it
// (ground truth), which models a perfect speech-to-text service without
// affecting the wake-up energy under study.
func detectPhrase(tr *sensor.Trace, start, end int) []sensor.Event {
	speech := windowedSustained(tr, start, end, "speech", speechSustain, func(win []float64) bool {
		v := dsp.Variance(win)
		zv := zcrVariance(win, musicSubwindows)
		return v >= speechVarMin && zv >= speechZCRVarMin
	})
	var out []sensor.Event
	for _, seg := range speech {
		for _, gt := range tr.EventsLabeled("phrase") {
			if gt.Overlaps(seg.Start-audioWin, seg.End+audioWin) {
				out = append(out, sensor.Event{Label: "phrase", Start: gt.Start, End: gt.End})
			}
		}
	}
	return mergeEvents(out, 0)
}

// windowedSustained scans [start, end) in non-overlapping windows of
// audioWin samples, evaluates match on each, and emits an event for every
// run of at least sustain consecutive matching windows.
func windowedSustained(tr *sensor.Trace, start, end int, label string, sustain int, match func([]float64) bool) []sensor.Event {
	start, end, ok := clampRange(tr, start, end)
	if !ok {
		return nil
	}
	mic := tr.Channels[core.Mic]
	var out []sensor.Event
	run := 0
	runStart := 0
	flush := func(at int) {
		if run >= sustain {
			out = append(out, sensor.Event{Label: label, Start: runStart, End: at})
		}
		run = 0
	}
	i := start
	for ; i+audioWin <= end; i += audioWin {
		if match(mic[i : i+audioWin]) {
			if run == 0 {
				runStart = i
			}
			run++
		} else {
			flush(i)
		}
	}
	flush(i)
	return out
}

// zcrVariance is the batch version of the hub's zcrVariance feature.
func zcrVariance(win []float64, k int) float64 {
	if k < 2 || len(win) < k {
		return 0
	}
	sub := len(win) / k
	rates := make([]float64, k)
	for i := 0; i < k; i++ {
		rates[i] = dsp.ZeroCrossingRate(win[i*sub : (i+1)*sub])
	}
	return dsp.Variance(rates)
}
