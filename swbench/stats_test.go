package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000, 10}, 10},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// The expected cut points are worked by hand from Python's exclusive
// method (position i·(n+1)/4, interpolated):
//
//	[1..10]:      positions 2.75, 5.5, 8.25 → 2.75, 5.5, 8.25
//	[1..4]:       positions 1.25, 2.5, 3.75 → 1.25, 2.5, 3.75
//	[1..5]:       positions 1.5, 3, 4.5     → 1.5, 3, 4.5
//	[2, 4]:       the index clamps to 1 and the weights go outside [0, 4],
//	              which extrapolates (worked in the case below).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		// n=2, m=3: i=1 → j=0 clamps to 1, delta=3-4=-1 →
		// (2·5 + 4·(-1))/4 = 1.5; i=2 → j=1, delta=2 → (2·2+4·2)/4 = 3;
		// i=3 → j=2 clamps to 1, delta=9-4=5 → (2·(-1)+4·5)/4 = 4.5.
		{[]float64{2, 4}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	// relSpread of 1..10: (8.25-2.75)/5.5 = 1.
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct{ p, want float64 }{
		{0.5, 50},    // rank ceil(50) = 50
		{0.99, 99},   // rank 99
		{0.999, 100}, // rank ceil(99.9) = 100
		{0.01, 1},
		{1, 100},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Ten samples: p99 is the maximum, p50 the 5th smallest.
	ten := []float64{7, 1, 9, 3, 5, 2, 8, 4, 10, 6}
	if got := percentile(ten, 0.99); got != 10 {
		t.Errorf("p99 of ten = %v, want 10", got)
	}
	if got := percentile(ten, 0.5); got != 5 {
		t.Errorf("p50 of ten = %v, want 5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile(nil) is not NaN")
	}
}

func TestPerWindowAndMin(t *testing.T) {
	xs := []float64{5, 1, 3, 10, 20, 30, 7}
	win := []int{2, 0, 0, 1, 1, 1, 2}
	got := perWindow(xs, win, 0.5) // window order 0, 1, 2
	want := []float64{1, 20, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perWindow = %v, want %v", got, want)
		}
	}
	if minOf(xs) != 1 || !math.IsNaN(minOf(nil)) {
		t.Errorf("minOf = %v", minOf(xs))
	}
}
