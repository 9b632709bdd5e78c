package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed the way Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method: position i·(n+1)/4 in the sorted data,
// linearly interpolated and clamped to the data's interior. The spread
// gate in tools/spread.py uses the Python function, so the two must agree.
// Fewer than two values return NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// relSpread is the interquartile distance of xs as a share of its median:
// the steadiness figure the benchmark's bounds are checked against, also
// printed for the repetitions inside one run.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest value with at least a p share of the samples at or below it.
// An empty slice gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over already ascending data.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// minOf returns the smallest value of xs (NaN when empty).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// perWindow groups xs by window index win[i] and returns the nearest-rank
// p-quantile inside each window, in window order.
func perWindow(xs []float64, win []int, p float64) []float64 {
	groups := map[int][]float64{}
	for i, x := range xs {
		groups[win[i]] = append(groups[win[i]], x)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	per := make([]float64, 0, len(keys))
	for _, k := range keys {
		per = append(per, percentile(groups[k], p))
	}
	return per
}
