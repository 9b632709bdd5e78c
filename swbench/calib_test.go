package main

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// Each unit is scaled by nominal over the mean kernel sample around it,
// worked by hand with nominal 0.1:
//
//	2.0 s at a 0.1 s sample  → 2.0
//	3.0 s at a 0.2 s sample  → 1.5 (the host ran at half speed)
//	1.0 s at a 0.05 s sample → 2.0 (the host ran at double speed)
//
// and the median of {2.0, 1.5, 2.0} is 2.0.
func TestScaledUnits(t *testing.T) {
	got := scaledUnits([]float64{2, 3, 1}, []float64{0.1, 0.2, 0.05}, 0.1)
	want := []float64{2, 1.5, 2}
	for i := range got {
		if !near(got[i], want[i]) {
			t.Errorf("unit %d = %v, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); !near(m, 2) {
		t.Errorf("median %v, want 2", m)
	}
}

// Consecutive units share a kernel sample, and each unit's reference is
// the mean of the samples before and after it.
func TestRefTimerSharesSamples(t *testing.T) {
	k, err := newRefKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	rt := k.timer()
	var seen []float64
	for _, d := range []float64{1, 2, 3} {
		if err := rt.time(func() (float64, error) {
			seen = append(seen, rt.last)
			return d, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rt.raw) != 3 || rt.raw[0] != 1 || rt.raw[2] != 3 {
		t.Fatalf("raw = %v, want the reported unit times", rt.raw)
	}
	for i := range seen {
		after := rt.last
		if i+1 < len(seen) {
			after = seen[i+1]
		}
		if want := (seen[i] + after) / 2; rt.refs[i] != want {
			t.Errorf("unit %d reference %v, want mean of %v and %v", i, rt.refs[i], seen[i], after)
		}
	}
}

// The chase table is one cycle through every entry.
func TestChaseIsOneCycle(t *testing.T) {
	k, err := newRefKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	j, n := uint32(0), 0
	for {
		j = binary.LittleEndian.Uint32(k.chase[4*j:])
		n++
		if j == 0 || n > refChaseLen {
			break
		}
	}
	if n != refChaseLen {
		t.Errorf("cycle through entry 0 has length %d, want %d", n, refChaseLen)
	}
}

// The echo kernel's round trips succeed, and closing it ends its echo
// goroutines.
func TestEchoKernelSamplesAndCloses(t *testing.T) {
	e, err := newEchoKernel(2)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := e.sample(); err != nil || d <= 0 {
		t.Errorf("sample = %v, %v", d, err)
	}
	if err := e.close(); err != nil {
		t.Error(err)
	}
	if _, err := e.sample(); err == nil {
		t.Error("sample on closed connections succeeded")
	}
}

// The kernel's FFT agrees with a direct DFT.
func TestKernelFFTMatchesDFT(t *testing.T) {
	k, err := newRefKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]complex128, refFFTLen)
	for i := range in {
		in[i] = complex(math.Sin(float64(i)*0.3)+float64(i%5), float64(i%3))
	}
	got := append([]complex128(nil), in...)
	k.fft(got)
	for f := 0; f < refFFTLen; f += 37 {
		var want complex128
		for i, x := range in {
			want += x * cmplx.Exp(complex(0, -2*math.Pi*float64(f*i)/refFFTLen))
		}
		if cmplx.Abs(got[f]-want) > 1e-8*float64(refFFTLen) {
			t.Errorf("bin %d = %v, want %v", f, got[f], want)
		}
	}
}
