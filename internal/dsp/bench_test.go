package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The FFT benchmarks pin the streaming allocation contract: once scratch
// is warm, a round trip, a block-filter emission and a peak-to-mean score
// allocate nothing (make bench-check fails on any allocs/op regression).

func benchSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*900*float64(i)/4000) + 0.1*rng.NormFloat64()
	}
	return x
}

var sinkF float64

func BenchmarkFFTRoundTrip(b *testing.B) {
	b.Run("1024", func(b *testing.B) {
		x := benchSignal(1024)
		buf := make([]complex128, len(x))
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := FFT(buf); err != nil {
				b.Fatal(err)
			}
			if err := IFFT(buf); err != nil {
				b.Fatal(err)
			}
		}
		sinkF = real(buf[0])
	})
}

func BenchmarkBlockFilterFFT(b *testing.B) {
	f, err := NewBlockFilter(HighPass, 750, 4000, 1024)
	if err != nil {
		b.Fatal(err)
	}
	x := benchSignal(1024)
	f.Consume(x) // warm the filter's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, ok := f.Consume(x)
		if !ok {
			b.Fatal("no block emitted")
		}
		sinkF = out[0]
	}
}

// BenchmarkGoertzelBank feeds the siren variant's bank shape, 16 detectors
// at block 64, one 1024-sample buffer per op through Consume.
func BenchmarkGoertzelBank(b *testing.B) {
	bank, err := NewGoertzelBank(850, 1800, 4000, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	x := benchSignal(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src := x; len(src) > 0; {
			n, best, ok := bank.Consume(src)
			if ok {
				sinkF = best
			}
			src = src[n:]
		}
	}
}

func BenchmarkPeakToMeanRatioInto(b *testing.B) {
	x := benchSignal(1024)
	var spec []complex128
	var mags []float64
	_, _, spec, mags, _ = PeakToMeanRatioInto(spec, mags, x, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ratio float64
		var err error
		ratio, _, spec, mags, err = PeakToMeanRatioInto(spec, mags, x, 4000)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = ratio
	}
}

// BenchmarkFusedStages keeps the cost of the stage pairs after the first
// visible on both paths at n = 1024: the AVX kernel (skipped where the
// CPU lacks it) and the Go loop it falls back to. Each iteration restores
// the input first, so the values stay in range; both paths pay that copy.
func BenchmarkFusedStages(b *testing.B) {
	x := benchSignal(1024)
	in := make([]complex128, len(x))
	for i, v := range x {
		in[i] = complex(v, 0)
	}
	buf := make([]complex128, len(in))
	t := &stages(len(in)).fwd
	avx := useAVX
	b.Cleanup(func() { useAVX = avx })
	for _, kernel := range []bool{true, false} {
		name := "go"
		if kernel {
			name = "kernel"
		}
		b.Run(name, func(b *testing.B) {
			if kernel && !avx {
				b.Skip("no AVX kernel on this CPU or GOARCH")
			}
			useAVX = kernel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				fusedStages(buf, t)
			}
			sinkF = real(buf[0])
		})
	}
}

// BenchmarkFirstPairs keeps the cost of both first stage pairs visible on
// both paths at n = 1024: the real pair of FFTRealInto over unpadded
// input, and the inverse pair the FFT filter gathers from its masked
// spectrum, each through its AVX kernel (skipped where the CPU lacks it)
// and its Go loop.
func BenchmarkFirstPairs(b *testing.B) {
	x := benchSignal(1024)
	spec, err := FFTRealInto(nil, x)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, len(x))
	st := stages(len(x))
	avx := useAVX
	b.Cleanup(func() { useAVX = avx })
	for _, pair := range []struct {
		name string
		run  func()
	}{
		{"real", func() { realFirstPair(dst, x, st.rev, &st.fwd.pairs[0]) }},
		{"inverse", func() { gatherFirstPair(dst, spec, st.rev, &st.inv) }},
	} {
		for _, kernel := range []bool{true, false} {
			name := pair.name + "/go"
			if kernel {
				name = pair.name + "/kernel"
			}
			b.Run(name, func(b *testing.B) {
				if kernel && !avx {
					b.Skip("no AVX kernel on this CPU or GOARCH")
				}
				useAVX = kernel
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pair.run()
				}
				sinkF = real(dst[0])
			})
		}
	}
}
