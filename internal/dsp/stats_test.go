package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStatsKnownValues(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !approxEqual(got, 5, eps) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(x); !approxEqual(got, 4, eps) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(x); !approxEqual(got, 2, eps) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Min(x); got != 2 {
		t.Errorf("Min = %g, want 2", got)
	}
	if got := Max(x); got != 9 {
		t.Errorf("Max = %g, want 9", got)
	}
	if got := Range(x); got != 7 {
		t.Errorf("Range = %g, want 7", got)
	}
	if got := Sum(x); got != 40 {
		t.Errorf("Sum = %g, want 40", got)
	}
}

func TestStatsEmptySlices(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %g", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %g", got)
	}
	if got := RMS(nil); got != 0 {
		t.Errorf("RMS(nil) = %g", got)
	}
	if got := Range(nil); got != 0 {
		t.Errorf("Range(nil) = %g", got)
	}
	if got := MeanAbs(nil); got != 0 {
		t.Errorf("MeanAbs(nil) = %g", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5}, 5},
	} {
		if got := Median(tc.x); !approxEqual(got, tc.want, eps) {
			t.Errorf("Median(%v) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Median(x)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Errorf("Median mutated input: %v", x)
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{3, 4, 0, 0}); !approxEqual(got, 2.5, eps) {
		t.Errorf("RMS = %g, want 2.5", got)
	}
}

func TestMeanAbsAndEnergy(t *testing.T) {
	x := []float64{-1, 2, -3}
	if got := MeanAbs(x); !approxEqual(got, 2, eps) {
		t.Errorf("MeanAbs = %g, want 2", got)
	}
	if got := Energy(x); !approxEqual(got, 14, eps) {
		t.Errorf("Energy = %g, want 14", got)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBoundedByMinMaxProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		m := Mean(xs)
		return m >= Min(xs)-eps && m <= Max(xs)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStdDevScalesLinearlyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = 3 * v
		}
		return approxEqual(StdDev(scaled), 3*StdDev(xs), 1e-9*(1+StdDev(xs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
