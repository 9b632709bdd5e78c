package dsp

import (
	"math"
	"sort"
)

// Sum returns the sum of x. An empty slice sums to zero.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// Min returns the minimum of x, or +Inf for an empty slice.
func Min(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x, or -Inf for an empty slice.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// Range returns Max(x) - Min(x), or 0 for an empty slice.
func Range(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Max(x) - Min(x)
}

// RMS returns the root-mean-square of x, or 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Median returns the median of x without modifying it, or 0 for an empty
// slice.
func Median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, x)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MeanAbs returns the mean of |x_i|, or 0 for an empty slice.
func MeanAbs(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s / float64(len(x))
}

// Energy returns the sum of squares of x.
func Energy(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}
