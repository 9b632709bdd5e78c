package dsp

import (
	"testing"
	"testing/quick"
)

func TestMinThreshold(t *testing.T) {
	th := NewMinThreshold(15)
	if _, ok := th.Push(14.9); ok {
		t.Error("14.9 should not pass min threshold 15")
	}
	v, ok := th.Push(15)
	if !ok || v != 15 {
		t.Errorf("15 should pass, got (%g, %v)", v, ok)
	}
	if _, ok := th.Push(100); !ok {
		t.Error("100 should pass min threshold 15")
	}
}

func TestMaxThreshold(t *testing.T) {
	th := NewMaxThreshold(-3.75)
	if _, ok := th.Push(0); ok {
		t.Error("0 should not pass max threshold -3.75")
	}
	if _, ok := th.Push(-4); !ok {
		t.Error("-4 should pass max threshold -3.75")
	}
}

func TestBandThreshold(t *testing.T) {
	th, err := NewBandThreshold(2.5, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    float64
		pass bool
	}{
		{2.4, false}, {2.5, true}, {3.5, true}, {4.5, true}, {4.6, false},
	} {
		if got := th.Admits(tc.v); got != tc.pass {
			t.Errorf("band(2.5,4.5).Admits(%g) = %v, want %v", tc.v, got, tc.pass)
		}
	}
}

func TestBandThresholdValidation(t *testing.T) {
	if _, err := NewBandThreshold(5, 4); err == nil {
		t.Error("min > max should fail")
	}
}

func TestThresholdPassThroughValueProperty(t *testing.T) {
	f := func(v float64) bool {
		if v != v || v < -1e300 || v > 1e300 {
			return true // NaN and extreme magnitudes out of scope
		}
		th := NewMinThreshold(-1e300)
		out, ok := th.Push(v)
		return ok && out == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
