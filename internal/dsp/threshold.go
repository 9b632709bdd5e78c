package dsp

import "fmt"

// Threshold is a streaming admission-control gate (paper §3.6 "Admission
// Control"). It passes a value through only when the configured condition
// holds; otherwise it produces nothing. A threshold at the end of a
// Sidewinder pipeline therefore decides when the main processor wakes up.
type Threshold struct {
	min    float64
	max    float64
	hasMin bool
	hasMax bool
}

// NewMinThreshold passes values >= min.
func NewMinThreshold(min float64) *Threshold {
	return &Threshold{min: min, hasMin: true}
}

// NewMaxThreshold passes values <= max.
func NewMaxThreshold(max float64) *Threshold {
	return &Threshold{max: max, hasMax: true}
}

// NewBandThreshold passes values in [min, max]. It returns an error when
// min > max.
func NewBandThreshold(min, max float64) (*Threshold, error) {
	if min > max {
		return nil, fmt.Errorf("dsp: band threshold min %g > max %g", min, max)
	}
	return &Threshold{min: min, max: max, hasMin: true, hasMax: true}, nil
}

// Push evaluates the gate. When the condition holds the input value is
// returned with ok=true.
func (t *Threshold) Push(v float64) (out float64, ok bool) {
	if t.hasMin && v < t.min {
		return 0, false
	}
	if t.hasMax && v > t.max {
		return 0, false
	}
	return v, true
}

// Admits reports whether v satisfies the gate without producing output.
func (t *Threshold) Admits(v float64) bool {
	_, ok := t.Push(v)
	return ok
}
