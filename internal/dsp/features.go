package dsp

import "math"

// VectorMagnitude returns sqrt(sum of squares) of the components. It is the
// magnitude-of-acceleration feature of the paper (§3.6) when given the three
// accelerometer axes.
func VectorMagnitude(components ...float64) float64 {
	var s float64
	for _, v := range components {
		s += v * v
	}
	return math.Sqrt(s)
}

// ZeroCrossingRate returns the fraction of adjacent sample pairs in x whose
// signs differ, in [0, 1]. Zero samples are treated as positive, matching
// the common convention. Fewer than two samples yield 0.
func ZeroCrossingRate(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	return float64(ZeroCrossingCount(x)) / float64(len(x)-1)
}

// ZeroCrossingCount returns the number of sign changes in x.
func ZeroCrossingCount(x []float64) int {
	if len(x) < 2 {
		return 0
	}
	crossings := 0
	prev := negative(x[0])
	for _, v := range x[1:] {
		n := negative(v)
		crossings += n ^ prev
		prev = n
	}
	return crossings
}

// negative is 1 when v has its sign bit set and is not -0, else 0: the
// same test as math.Signbit(v) && v != 0 for every float64, NaNs
// included, as one unsigned compare.
func negative(v float64) int {
	if math.Float64bits(v) > 1<<63 {
		return 1
	}
	return 0
}

// Extremum describes a local maximum or minimum found in a signal.
type Extremum struct {
	Index int     // sample index within the analyzed slice
	Value float64 // sample value at the extremum
}

// LocalMaxima returns the local maxima of x whose values lie in [lo, hi].
// A sample is a local maximum if it is strictly greater than its left
// neighbor and at least its right neighbor (plateaus report their first
// sample). Endpoints are never maxima. This is the primitive used by the
// step detector (Libby's method, paper §3.7.1).
func LocalMaxima(x []float64, lo, hi float64) []Extremum {
	var out []Extremum
	for i := 1; i < len(x)-1; i++ {
		if x[i] > x[i-1] && x[i] >= x[i+1] && x[i] >= lo && x[i] <= hi {
			out = append(out, Extremum{Index: i, Value: x[i]})
		}
	}
	return out
}

// LocalMinima returns the local minima of x whose values lie in [lo, hi],
// with conventions mirroring LocalMaxima. Used by the headbutt detector.
func LocalMinima(x []float64, lo, hi float64) []Extremum {
	var out []Extremum
	for i := 1; i < len(x)-1; i++ {
		if x[i] < x[i-1] && x[i] <= x[i+1] && x[i] >= lo && x[i] <= hi {
			out = append(out, Extremum{Index: i, Value: x[i]})
		}
	}
	return out
}

// PeakToMeanRatio returns the ratio of the dominant (non-DC) spectral
// magnitude to the mean magnitude of all non-DC bins in the first half of
// the spectrum. It is the "pitched sound" feature of the siren detector
// (paper §3.7.2): tonal signals have a high ratio, broadband noise a low
// one. It returns 0 for signals too short to analyze.
func PeakToMeanRatio(x []float64, sampleRate float64) (ratio, domFreq float64, err error) {
	ratio, domFreq, _, _, err = PeakToMeanRatioInto(nil, nil, x, sampleRate)
	return ratio, domFreq, err
}

// PeakToMeanRatioInto is PeakToMeanRatio with caller-owned scratch: spec
// and mags are the spectrum and magnitude workspaces, grown only when too
// small. It returns them (possibly reallocated) so a caller scoring window
// after window carries one pair of buffers and stays allocation-free.
func PeakToMeanRatioInto(spec []complex128, mags, x []float64, sampleRate float64) (ratio, domFreq float64, specOut []complex128, magsOut []float64, err error) {
	if len(x) < 4 {
		return 0, 0, spec, mags, nil
	}
	spec, err = FFTRealInto(spec, x)
	if err != nil {
		return 0, 0, spec, mags, err
	}
	if cap(mags) < len(spec) {
		mags = make([]float64, len(spec))
	}
	mags = mags[:len(spec)]
	// Only bins 1..n/2 are read, so only their magnitudes are taken; the
	// rest of mags is scratch.
	half := MagnitudesInto(mags[1:1], spec[1:len(spec)/2+1])
	best := 0
	var sum float64
	for i, m := range half {
		sum += m
		if m > half[best] {
			best = i
		}
	}
	mean := sum / float64(len(half))
	if mean == 0 {
		return 0, 0, spec, mags, nil
	}
	return half[best] / mean, BinFrequency(best+1, len(spec), sampleRate), spec, mags, nil
}
