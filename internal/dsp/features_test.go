package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorMagnitude(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 4}, 5},
		{[]float64{1, 2, 2}, 3},
		{[]float64{0, 0, 0}, 0},
		{[]float64{-3, -4}, 5},
		{nil, 0},
		{[]float64{7}, 7},
	} {
		if got := VectorMagnitude(tc.in...); !approxEqual(got, tc.want, eps) {
			t.Errorf("VectorMagnitude(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestZeroCrossingRate(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"alternating", []float64{1, -1, 1, -1}, 1},
		{"constant positive", []float64{1, 1, 1, 1}, 0},
		{"single crossing", []float64{1, 1, -1, -1}, 1.0 / 3},
		{"empty", nil, 0},
		{"one sample", []float64{5}, 0},
		{"zeros treated positive", []float64{0, 0, 0}, 0},
	} {
		if got := ZeroCrossingRate(tc.in); !approxEqual(got, tc.want, eps) {
			t.Errorf("%s: ZCR = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestZeroCrossingRateOfSineScalesWithFrequency(t *testing.T) {
	const rate = 1000.0
	n := 1000
	zcrAt := func(freq float64) float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
		}
		return ZeroCrossingRate(x)
	}
	low, high := zcrAt(10), zcrAt(100)
	if high <= low {
		t.Errorf("ZCR should grow with frequency: 10 Hz=%g, 100 Hz=%g", low, high)
	}
	// A sine at f Hz crosses zero 2f times per second: rate 2f/sampleRate.
	if want := 2 * 100 / rate; !approxEqual(high, want, 0.01) {
		t.Errorf("ZCR(100 Hz sine) = %g, want ~%g", high, want)
	}
}

func TestZeroCrossingRateBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		z := ZeroCrossingRate(xs)
		return z >= 0 && z <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCrossingCountMatchesRate(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return approxEqual(ZeroCrossingRate(xs), float64(ZeroCrossingCount(xs))/float64(len(xs)-1), eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroCrossingSignTestMatchesSignbit checks the one-compare sign test
// against the math.Signbit(v) && v != 0 rule it replaced, on every special
// value (signed zeros, subnormals, infinities, NaNs of both signs) and on
// random bit patterns, and checks ZeroCrossingCount against a count made
// with the old rule over sequences drawn from the same values.
func TestZeroCrossingSignTestMatchesSignbit(t *testing.T) {
	oldNeg := func(v float64) bool { return math.Signbit(v) && v != 0 }
	oldCount := func(x []float64) int {
		c := 0
		for i := 1; i < len(x); i++ {
			if oldNeg(x[i]) != oldNeg(x[i-1]) {
				c++
			}
		}
		return c
	}
	rng := rand.New(rand.NewSource(3))
	values := append([]float64{1, -1}, specials...)
	for i := 0; i < 1000; i++ {
		values = append(values, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range values {
		if got, want := negative(v) == 1, oldNeg(v); got != want {
			t.Fatalf("negative(%v [%#x]) = %v, want %v", v, math.Float64bits(v), got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 2+rng.Intn(64))
		for i := range x {
			x[i] = values[rng.Intn(len(values))]
		}
		if got, want := ZeroCrossingCount(x), oldCount(x); got != want {
			t.Fatalf("ZeroCrossingCount(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestLocalMaxima(t *testing.T) {
	x := []float64{0, 3, 1, 5, 5, 2, 4, 0}
	got := LocalMaxima(x, 0, 10)
	want := []Extremum{{1, 3}, {3, 5}, {6, 4}}
	if len(got) != len(want) {
		t.Fatalf("LocalMaxima = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("maximum %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLocalMaximaRangeFilter(t *testing.T) {
	x := []float64{0, 3, 1, 5, 1, 4, 0}
	got := LocalMaxima(x, 2.5, 4.5)
	want := []Extremum{{1, 3}, {5, 4}}
	if len(got) != len(want) {
		t.Fatalf("filtered maxima = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("maximum %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLocalMaximaEndpointsExcluded(t *testing.T) {
	if got := LocalMaxima([]float64{9, 1, 8}, 0, 10); len(got) != 0 {
		t.Errorf("endpoints must not be maxima, got %v", got)
	}
	if got := LocalMaxima([]float64{1, 2}, 0, 10); got != nil {
		t.Errorf("two-sample input has no interior, got %v", got)
	}
}

func TestLocalMinima(t *testing.T) {
	x := []float64{5, -4, 3, -6, -6, 2, 5}
	got := LocalMinima(x, -7, 0)
	want := []Extremum{{1, -4}, {3, -6}}
	if len(got) != len(want) {
		t.Fatalf("LocalMinima = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("minimum %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMinimaAreMaximaOfNegationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		neg := make([]float64, len(xs))
		for i, v := range xs {
			neg[i] = -v
		}
		minima := LocalMinima(xs, math.Inf(-1), math.Inf(1))
		maxima := LocalMaxima(neg, math.Inf(-1), math.Inf(1))
		if len(minima) != len(maxima) {
			return false
		}
		for i := range minima {
			if minima[i].Index != maxima[i].Index || !approxEqual(minima[i].Value, -maxima[i].Value, eps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakToMeanRatioDistinguishesToneFromNoise(t *testing.T) {
	const rate = 8000.0
	n := 1024
	tone := make([]float64, n)
	noise := make([]float64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / rate)
		noise[i] = rng.NormFloat64()
	}
	toneRatio, toneFreq, err := PeakToMeanRatio(tone, rate)
	if err != nil {
		t.Fatal(err)
	}
	noiseRatio, _, err := PeakToMeanRatio(noise, rate)
	if err != nil {
		t.Fatal(err)
	}
	if toneRatio < 5*noiseRatio {
		t.Errorf("tone ratio %g should dwarf noise ratio %g", toneRatio, noiseRatio)
	}
	if !approxEqual(toneFreq, 1000, rate/float64(n)+1) {
		t.Errorf("tone dominant frequency = %g, want ~1000", toneFreq)
	}
}

func TestPeakToMeanRatioShortInput(t *testing.T) {
	ratio, freq, err := PeakToMeanRatio([]float64{1, 2}, 100)
	if err != nil || ratio != 0 || freq != 0 {
		t.Errorf("short input: got (%g,%g,%v), want zeros", ratio, freq, err)
	}
}

// TestPeakToMeanRatioIntoCarriesScratch feeds windows of changing length
// through one pair of carried buffers and checks every result against a
// fresh PeakToMeanRatio, so leftover scratch from a longer window never
// leaks into a shorter one.
func TestPeakToMeanRatioIntoCarriesScratch(t *testing.T) {
	const rate = 4000.0
	rng := rand.New(rand.NewSource(9))
	var spec []complex128
	var mags []float64
	for _, n := range []int{1024, 100, 3, 1024, 7, 512} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(2*math.Pi*900*float64(i)/rate) + 0.3*rng.NormFloat64()
		}
		wantRatio, wantFreq, wantErr := PeakToMeanRatio(x, rate)
		var ratio, freq float64
		var err error
		ratio, freq, spec, mags, err = PeakToMeanRatioInto(spec, mags, x, rate)
		if err != wantErr || math.Float64bits(ratio) != math.Float64bits(wantRatio) ||
			math.Float64bits(freq) != math.Float64bits(wantFreq) {
			t.Fatalf("n=%d: Into = (%v, %v, %v), fresh = (%v, %v, %v)",
				n, ratio, freq, err, wantRatio, wantFreq, wantErr)
		}
	}
	if cap(spec) < 1024 || cap(mags) < 1024 {
		t.Fatalf("scratch not carried: cap(spec)=%d cap(mags)=%d", cap(spec), cap(mags))
	}
}
