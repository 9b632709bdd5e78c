// Package tracegen synthesizes the evaluation traces of paper §4.1:
//
//   - Robot accelerometer traces: scripted AIBO-style runs mixing standing
//     idle, walking, sit/stand transitions and headbutts at the paper's
//     activity ratios, with exact ground-truth labels.
//   - Human accelerometer traces: commute/retail/office profiles with
//     20-37% walking and confounding activities, without ground truth
//     (recall is measured against Always-Awake detections, as in §5.5).
//   - Audio traces: office/coffee-shop/outdoor noise beds with injected
//     music (5%), speech (5%) and sirens (2%), plus rare phrases inside
//     speech segments.
//
// The original traces came from real hardware (a robot dog, human subjects,
// microphone recordings). The generators reproduce the *signatures* the
// paper's detectors key on — step maxima between 2.5 and 4.5 m/s²,
// orientation bands for postures, headbutt minima between -6.75 and
// -3.75 m/s², pitched 850-1800 Hz sirens — so every classifier and wake-up
// condition exercises the same code paths. All generators are
// deterministic given their seed.
package tracegen

import (
	"math"
	"math/rand"
)

// Ground-truth labels used across the generated traces.
const (
	LabelStep       = "step"
	LabelWalk       = "walk"
	LabelTransition = "transition"
	LabelHeadbutt   = "headbutt"
	LabelMusic      = "music"
	LabelSpeech     = "speech"
	LabelSiren      = "siren"
	LabelPhrase     = "phrase"
)

// smoothstep interpolates from 0 to 1 over u in [0,1] with zero slope at
// both ends.
func smoothstep(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 1
	}
	return u * u * (3 - 2*u)
}

// bump is a smooth positive pulse over u in [0,1], peaking at 1 when u=0.5.
func bump(u float64) float64 {
	if u <= 0 || u >= 1 {
		return 0
	}
	s := math.Sin(math.Pi * u)
	return s * s
}

// jitter returns v multiplied by a uniform factor in [1-frac, 1+frac].
func jitter(rng *rand.Rand, v, frac float64) float64 {
	return v * (1 + (rng.Float64()*2-1)*frac)
}
