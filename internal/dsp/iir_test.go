package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sineResponse measures a filter's steady-state gain at freq.
func sineResponse(f *Biquad, freq, rate float64) float64 {
	f.Reset()
	n := int(rate) // one second
	var peak float64
	for i := 0; i < n; i++ {
		y, _ := f.Push(math.Sin(2 * math.Pi * freq * float64(i) / rate))
		if i > n/2 && math.Abs(y) > peak { // skip the transient
			peak = math.Abs(y)
		}
	}
	return peak
}

func TestLowPassBiquadFrequencyResponse(t *testing.T) {
	const rate = 4000.0
	f, err := NewLowPassBiquad(200, rate)
	if err != nil {
		t.Fatal(err)
	}
	pass := sineResponse(f, 20, rate)
	stop := sineResponse(f, 1500, rate)
	if pass < 0.9 {
		t.Errorf("pass-band gain = %.3f, want ~1", pass)
	}
	if stop > 0.05 {
		t.Errorf("stop-band gain = %.3f, want ~0", stop)
	}
}

func TestHighPassBiquadFrequencyResponse(t *testing.T) {
	const rate = 4000.0
	f, err := NewHighPassBiquad(750, rate)
	if err != nil {
		t.Fatal(err)
	}
	stop := sineResponse(f, 60, rate)
	pass := sineResponse(f, 1500, rate)
	if pass < 0.9 {
		t.Errorf("pass-band gain = %.3f, want ~1", pass)
	}
	if stop > 0.05 {
		t.Errorf("stop-band gain = %.3f, want ~0", stop)
	}
	// DC is removed entirely.
	f.Reset()
	var y float64
	for i := 0; i < 4000; i++ {
		y, _ = f.Push(5)
	}
	if math.Abs(y) > 1e-3 {
		t.Errorf("DC leaks through high-pass: %g", y)
	}
}

func TestBiquadValidation(t *testing.T) {
	if _, err := NewLowPassBiquad(0, 100); err == nil {
		t.Error("zero cutoff should fail")
	}
	if _, err := NewLowPassBiquad(60, 100); err == nil {
		t.Error("cutoff above Nyquist should fail")
	}
	if _, err := NewHighPassBiquad(10, 0); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestBiquadStabilityProperty(t *testing.T) {
	// Bounded input -> bounded output, for any valid cutoff.
	f := func(seed int64, cutRaw uint8) bool {
		const rate = 1000.0
		cutoff := 10 + float64(cutRaw)*(480.0/255)
		filt, err := NewLowPassBiquad(cutoff, rate)
		if err != nil {
			return false
		}
		x := 1.0
		for i := 0; i < 5000; i++ {
			x = -x // worst-case alternating input
			y, _ := filt.Push(x)
			if math.Abs(y) > 10 || math.IsNaN(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGoertzelDetectsTargetTone(t *testing.T) {
	const rate = 4000.0
	g, err := NewGoertzel(1000, rate, 256)
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockSize() != 256 {
		t.Fatalf("BlockSize = %d", g.BlockSize())
	}
	score := feedTone(g, 1000, rate, 256)
	if score < 1.2 {
		t.Errorf("on-target score = %.2f, want high", score)
	}
	g.Reset()
	off := feedTone(g, 300, rate, 256)
	if off > score/3 {
		t.Errorf("off-target score %.2f should be far below on-target %.2f", off, score)
	}
}

func feedTone(g *Goertzel, freq, rate float64, n int) float64 {
	var out float64
	for i := 0; i < n; i++ {
		if s, ok := g.Push(math.Sin(2 * math.Pi * freq * float64(i) / rate)); ok {
			out = s
		}
	}
	return out
}

func TestGoertzelSilenceScoresZero(t *testing.T) {
	g, err := NewGoertzel(500, 4000, 64)
	if err != nil {
		t.Fatal(err)
	}
	var score float64
	var fired bool
	for i := 0; i < 64; i++ {
		if s, ok := g.Push(0); ok {
			score, fired = s, true
		}
	}
	if !fired || score != 0 {
		t.Errorf("silence score = %.2f fired=%v, want 0/true", score, fired)
	}
}

func TestGoertzelValidation(t *testing.T) {
	if _, err := NewGoertzel(0, 4000, 64); err == nil {
		t.Error("zero frequency should fail")
	}
	if _, err := NewGoertzel(3000, 4000, 64); err == nil {
		t.Error("frequency above Nyquist should fail")
	}
	if _, err := NewGoertzel(500, 0, 64); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewGoertzel(500, 4000, 4); err == nil {
		t.Error("tiny block should fail")
	}
}

func TestGoertzelBankCoversBand(t *testing.T) {
	const rate = 4000.0
	bank, err := NewGoertzelBank(850, 1800, rate, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Size() != 16 {
		t.Fatalf("Size = %d", bank.Size())
	}
	// Any in-band tone scores high; out-of-band tones score low.
	inBand := bankTone(bank, 1234, rate)
	bank.Reset()
	outBand := bankTone(bank, 300, rate)
	if inBand < 0.8 {
		t.Errorf("in-band score = %.2f, want high", inBand)
	}
	if outBand > inBand/2 {
		t.Errorf("out-of-band score %.2f should be well below in-band %.2f", outBand, inBand)
	}
}

func bankTone(b *GoertzelBank, freq, rate float64) float64 {
	var best float64
	for i := 0; i < 64; i++ {
		if s, ok := b.Push(math.Sin(2 * math.Pi * freq * float64(i) / rate)); ok {
			best = s
		}
	}
	return best
}

func TestGoertzelBankValidation(t *testing.T) {
	if _, err := NewGoertzelBank(850, 1800, 4000, 64, 0); err == nil {
		t.Error("empty bank should fail")
	}
	if _, err := NewGoertzelBank(1800, 850, 4000, 64, 4); err == nil {
		t.Error("inverted band should fail")
	}
	if _, err := NewGoertzelBank(0, 1800, 4000, 64, 4); err == nil {
		t.Error("invalid member frequency should fail")
	}
	// A single-detector bank sits at lo.
	bank, err := NewGoertzelBank(1000, 2000, 8000, 64, 1)
	if err != nil || bank.Size() != 1 {
		t.Fatalf("single bank: %v", err)
	}
}

// TestGoertzelBankMatchesPushBitForBit checks the bank's shared-energy,
// four-wide Consume against one Goertzel.Push loop per detector: for banks
// of 1, 3, 4, 5, 16 and 17 detectors at block 64, fed through Consume in
// random chunks and through Push, every emission comes at the same sample
// with the same score bits, including the silent and the near-silent
// blocks, whose RMS is 0.
func TestGoertzelBankMatchesPushBitForBit(t *testing.T) {
	const (
		rate  = 4000.0
		block = 64
		n     = 1 << 17
	)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*1234*float64(i)/rate) + rng.NormFloat64()
	}
	silent := map[int]bool{}
	for _, b := range []int{0, 5, 6, 1000, n/block - 1} {
		silent[b] = true
		clear(x[b*block : (b+1)*block])
	}
	// A tone at the bank's lowest detector so faint that every x*x
	// underflows to 0: the block's RMS is 0 while that detector's
	// amplitude is not, and the block still scores 0.
	for _, b := range []int{9, 2000} {
		silent[b] = true
		for i := b * block; i < (b+1)*block; i++ {
			x[i] = 1e-162 * math.Sin(2*math.Pi*850*float64(i)/rate)
		}
	}

	type emission struct {
		at    int
		score uint64
	}
	for _, size := range []int{1, 3, 4, 5, 16, 17} {
		bank, err := NewGoertzelBank(850, 1800, rate, block, size)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: one detector per bank member, fed sample by
		// sample, the best score taken in bank order.
		refs := make([]*Goertzel, size)
		for i, d := range bank.dets {
			refs[i] = &Goertzel{goertzelState: goertzelState{coeff: d.coeff}, blockSize: block}
		}
		var want []emission
		zeros := 0
		for i, v := range x {
			var best float64
			var ok bool
			for _, g := range refs {
				if score, done := g.Push(v); done {
					ok = true
					if score > best {
						best = score
					}
				}
			}
			if ok {
				want = append(want, emission{i, math.Float64bits(best)})
				if silent[i/block] {
					if best != 0 {
						t.Fatalf("%d detectors: silent block %d scored %v", size, i/block, best)
					}
					zeros++
				}
			}
		}
		if len(want) != n/block || zeros != len(silent) {
			t.Fatalf("%d detectors: %d emissions (%d silent), want %d (%d)", size, len(want), zeros, n/block, len(silent))
		}

		for round := 0; round < 3; round++ {
			bank.Reset()
			var got []emission
			for at := 0; at < n; {
				chunk := x[at:min(n, at+1+rng.Intn(3*block))]
				for len(chunk) > 0 {
					k, best, ok := bank.Consume(chunk)
					at += k
					chunk = chunk[k:]
					if ok {
						got = append(got, emission{at - 1, math.Float64bits(best)})
					}
				}
			}
			if err := sameEmissions(got, want); err != "" {
				t.Fatalf("%d detectors, chunking %d: %s", size, round, err)
			}
		}
		bank.Reset()
		var got []emission
		for i, v := range x {
			if best, ok := bank.Push(v); ok {
				got = append(got, emission{i, math.Float64bits(best)})
			}
		}
		if err := sameEmissions(got, want); err != "" {
			t.Fatalf("%d detectors, Push: %s", size, err)
		}
	}
}

// sameEmissions compares two emission lists and describes the first
// difference ("" when equal).
func sameEmissions[E comparable](got, want []E) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("emission %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d emissions, want %d", len(got), len(want))
	}
	return ""
}
