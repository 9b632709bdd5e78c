package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMovingAveragerRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if _, err := NewMovingAverager(size); err == nil {
			t.Errorf("NewMovingAverager(%d) should fail", size)
		}
	}
}

func TestMovingAveragerWarmup(t *testing.T) {
	m, err := NewMovingAverager(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Push(1); ok {
		t.Error("output after 1 of 3 samples")
	}
	if _, ok := m.Push(2); ok {
		t.Error("output after 2 of 3 samples")
	}
	avg, ok := m.Push(3)
	if !ok || !approxEqual(avg, 2, eps) {
		t.Errorf("after warmup got (%g, %v), want (2, true)", avg, ok)
	}
	avg, ok = m.Push(7)
	if !ok || !approxEqual(avg, 4, eps) {
		t.Errorf("sliding average = (%g, %v), want (4, true)", avg, ok)
	}
}

func TestMovingAveragerReset(t *testing.T) {
	m, _ := NewMovingAverager(2)
	m.Push(1)
	m.Push(2)
	m.Reset()
	if _, ok := m.Push(5); ok {
		t.Error("Reset should require a fresh warmup")
	}
	avg, ok := m.Push(7)
	if !ok || !approxEqual(avg, 6, eps) {
		t.Errorf("post-reset average = (%g, %v), want (6, true)", avg, ok)
	}
}

func TestMovingAveragerMatchesBatchMeanProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMovingAverager(size)
		if err != nil {
			return false
		}
		xs := make([]float64, size+20)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		for i, v := range xs {
			avg, ok := m.Push(v)
			if i < size-1 {
				if ok {
					return false
				}
				continue
			}
			if !ok {
				return false
			}
			if !approxEqual(avg, Mean(xs[i-size+1:i+1]), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewEMA(alpha); err == nil {
			t.Errorf("NewEMA(%g) should fail", alpha)
		}
	}
	if _, err := NewEMA(1); err != nil {
		t.Errorf("NewEMA(1) should succeed: %v", err)
	}
}

func TestEMAFirstSamplePrimes(t *testing.T) {
	e, err := NewEMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e.Push(10)
	if !ok || v != 10 {
		t.Errorf("first push = (%g, %v), want (10, true)", v, ok)
	}
	v, _ = e.Push(0)
	if !approxEqual(v, 5, eps) {
		t.Errorf("second push = %g, want 5", v)
	}
	e.Reset()
	v, _ = e.Push(42)
	if v != 42 {
		t.Errorf("post-reset push = %g, want 42", v)
	}
}

func TestEMAConvergesToConstantProperty(t *testing.T) {
	f := func(target float64, alphaRaw uint8) bool {
		if math.IsNaN(target) || math.IsInf(target, 0) || math.Abs(target) > 1e6 {
			return true
		}
		alpha := float64(alphaRaw%9+1) / 10 // 0.1 .. 0.9
		e, err := NewEMA(alpha)
		if err != nil {
			return false
		}
		var v float64
		for i := 0; i < 500; i++ {
			v, _ = e.Push(target)
		}
		return approxEqual(v, target, 1e-6*(1+math.Abs(target)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockFilterValidation(t *testing.T) {
	if _, err := NewBlockFilter(LowPass, 10, 100, 6); err == nil {
		t.Error("non-power-of-two block size should fail")
	}
	if _, err := NewBlockFilter(LowPass, 10, 0, 8); err == nil {
		t.Error("zero sample rate should fail")
	}
	if _, err := NewBlockFilter(LowPass, 60, 100, 8); err == nil {
		t.Error("cutoff above Nyquist should fail")
	}
	if _, err := NewBlockFilter(LowPass, -1, 100, 8); err == nil {
		t.Error("negative cutoff should fail")
	}
}

func TestBlockFilterEmitsFilteredBlocks(t *testing.T) {
	const rate = 1000.0
	bf, err := NewBlockFilter(LowPass, 50, rate, 256)
	if err != nil {
		t.Fatal(err)
	}
	if bf.BlockSize() != 256 {
		t.Fatalf("BlockSize = %d", bf.BlockSize())
	}
	emitted := 0
	for i := 0; i < 512; i++ {
		ti := float64(i) / rate
		v := math.Sin(2*math.Pi*10*ti) + math.Sin(2*math.Pi*300*ti)
		block, ok := bf.Push(v)
		if ok {
			emitted++
			if len(block) != 256 {
				t.Fatalf("block length %d", len(block))
			}
			freq, _, err := DominantFrequency(block, rate)
			if err != nil {
				t.Fatal(err)
			}
			if freq > 50 {
				t.Errorf("low-passed block has dominant frequency %g Hz", freq)
			}
		}
	}
	if emitted != 2 {
		t.Errorf("emitted %d blocks, want 2", emitted)
	}
}

func TestBlockFilterHighPass(t *testing.T) {
	const rate = 8000.0
	bf, err := NewBlockFilter(HighPass, 750, rate, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 511; i++ {
		if _, ok := bf.Push(math.Sin(2 * math.Pi * 100 * float64(i) / rate)); ok {
			t.Fatal("premature block emission")
		}
	}
	block, ok := bf.Push(0)
	if !ok {
		t.Fatal("no block after 512 samples")
	}
	if r := RMS(block); r > 0.05 {
		t.Errorf("100 Hz tone should be removed by 750 Hz high-pass, RMS = %g", r)
	}
}

func TestBlockFilterReset(t *testing.T) {
	bf, _ := NewBlockFilter(LowPass, 10, 100, 8)
	for i := 0; i < 7; i++ {
		bf.Push(1)
	}
	bf.Reset()
	if _, ok := bf.Push(1); ok {
		t.Error("Reset should discard buffered samples")
	}
}

// TestIIRBlockFilterResetClearsState is the regression test for the Reset
// bug: the IIR backend carries biquad state across blocks, and Reset used to
// truncate only the block buffer, so the first block after Reset was colored
// by the previous stream. A reset filter must reproduce the first stream's
// output exactly.
func TestIIRBlockFilterResetClearsState(t *testing.T) {
	bf, err := NewIIRBlockFilterQ15(LowPass, 10, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, 64)
	for i := range src {
		src[i] = math.Sin(float64(i)/2) + 0.5
	}
	run := func() []float64 {
		var out []float64
		for _, v := range src {
			if block, ok := bf.Push(v); ok {
				out = append(out, block...)
			}
		}
		return out
	}
	first := run()
	// Leave both buffered samples and biquad state behind, then Reset.
	bf.Push(3)
	bf.Push(-7)
	bf.Reset()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("%d outputs after reset, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("output %d = %g after Reset, want %g (stale IIR state)", i, second[i], first[i])
		}
	}
}

// TestIIRBlockFilterQ15Validation pins the constructor's error paths: a
// non-positive block, and the biquad's cutoff and sample-rate checks, for
// both masks. The IIR backend frames blocks without an FFT, so a block
// that is not a power of two is fine.
func TestIIRBlockFilterQ15Validation(t *testing.T) {
	for _, kind := range []BlockFilterKind{LowPass, HighPass} {
		for _, tc := range []struct {
			name         string
			cutoff, rate float64
			block        int
		}{
			{"zero block", 10, 100, 0},
			{"negative block", 10, 100, -1},
			{"zero cutoff", 0, 100, 16},
			{"cutoff at Nyquist", 50, 100, 16},
			{"cutoff above Nyquist", 60, 100, 16},
			{"zero sample rate", 10, 0, 16},
			{"negative sample rate", 10, -100, 16},
		} {
			if _, err := NewIIRBlockFilterQ15(kind, tc.cutoff, tc.rate, tc.block); err == nil {
				t.Errorf("kind %d, %s: want error", kind, tc.name)
			}
		}
		bf, err := NewIIRBlockFilterQ15(kind, 10, 100, 12)
		if err != nil {
			t.Fatalf("kind %d, block 12: %v", kind, err)
		}
		if bf.BlockSize() != 12 {
			t.Errorf("kind %d: BlockSize = %d, want 12", kind, bf.BlockSize())
		}
	}
}

func TestWindowerValidation(t *testing.T) {
	if _, err := NewWindower(0, 1, Rectangular); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NewWindower(4, 0, Rectangular); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := NewWindower(4, 5, Rectangular); err == nil {
		t.Error("step > size should fail")
	}
}

func TestWindowerNonOverlapping(t *testing.T) {
	w, err := NewWindower(3, 3, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	var windows [][]float64
	for i := 1; i <= 9; i++ {
		if win, ok := w.Push(float64(i)); ok {
			// Push reuses its buffer; retained windows must be copied.
			windows = append(windows, append([]float64(nil), win...))
		}
	}
	if len(windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(windows))
	}
	want := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for i := range want {
		for j := range want[i] {
			if windows[i][j] != want[i][j] {
				t.Errorf("window %d = %v, want %v", i, windows[i], want[i])
			}
		}
	}
}

func TestWindowerOverlapping(t *testing.T) {
	w, err := NewWindower(4, 2, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	var windows [][]float64
	for i := 1; i <= 8; i++ {
		if win, ok := w.Push(float64(i)); ok {
			windows = append(windows, append([]float64(nil), win...))
		}
	}
	want := [][]float64{{1, 2, 3, 4}, {3, 4, 5, 6}, {5, 6, 7, 8}}
	if len(windows) != len(want) {
		t.Fatalf("got %d windows, want %d: %v", len(windows), len(want), windows)
	}
	for i := range want {
		for j := range want[i] {
			if windows[i][j] != want[i][j] {
				t.Errorf("window %d = %v, want %v", i, windows[i], want[i])
			}
		}
	}
}

func TestWindowerHammingTaper(t *testing.T) {
	w, err := NewWindower(8, 8, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	var win []float64
	for i := 0; i < 8; i++ {
		win, _ = w.Push(1)
	}
	coeffs := HammingCoefficients(8)
	for i := range coeffs {
		if !approxEqual(win[i], coeffs[i], eps) {
			t.Errorf("tapered[%d] = %g, want %g", i, win[i], coeffs[i])
		}
	}
	// Hamming endpoints are 0.08, peak near center.
	if !approxEqual(coeffs[0], 0.08, 1e-9) {
		t.Errorf("Hamming[0] = %g, want 0.08", coeffs[0])
	}
}

func TestHammingSingleCoefficient(t *testing.T) {
	c := HammingCoefficients(1)
	if len(c) != 1 || c[0] != 1 {
		t.Errorf("HammingCoefficients(1) = %v, want [1]", c)
	}
}

func TestParseWindowShape(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    WindowShape
		wantErr bool
	}{
		{"hamming", Hamming, false},
		{"rectangular", Rectangular, false},
		{"rect", Rectangular, false},
		{"", Rectangular, false},
		{"kaiser", Rectangular, true},
	} {
		got, err := ParseWindowShape(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseWindowShape(%q) = (%v, %v)", tc.in, got, err)
		}
	}
	if Hamming.String() != "hamming" || Rectangular.String() != "rectangular" {
		t.Error("String round-trip names wrong")
	}
	if WindowShape(99).String() == "" {
		t.Error("unknown shape should stringify diagnostically")
	}
}

func TestWindowerReset(t *testing.T) {
	w, _ := NewWindower(3, 3, Rectangular)
	w.Push(1)
	w.Push(2)
	w.Reset()
	if _, ok := w.Push(3); ok {
		t.Error("Reset should discard partial window")
	}
	if w.Size() != 3 {
		t.Errorf("Size = %d", w.Size())
	}
}

// chunking cuts a stream of length l into Consume calls: whole blocks
// when random is false, else random chunks of 1 to 3 blocks' length, so
// calls start both on an empty and on a part-filled buffer.
func chunking(rng *rand.Rand, l, block int, random bool) []int {
	var sizes []int
	for at := 0; at < l; {
		c := block
		if random {
			c = 1 + rng.Intn(3*block)
		}
		c = min(c, l-at)
		sizes = append(sizes, c)
		at += c
	}
	return sizes
}

// TestBlockFilterConsumeMatchesPush feeds one stream through Consume in
// whole-block and random chunkings and through a Push loop and compares
// every emitted block by math.Float64bits, for the FFT and Q15 IIR
// backends, with a Reset part way through a block. The chunkings must
// reach a block boundary both from an empty buffer and from a part-filled
// one, and the caller's slice must be left as it was.
func TestBlockFilterConsumeMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const block = 64
	src := make([]float64, 40*block+17)
	for i := range src {
		src[i] = math.Sin(float64(i)/3) + 0.3*rng.NormFloat64()
	}
	orig := slices.Clone(src)
	segments := [][]float64{src[:20*block+5], src[20*block+5:]} // Reset between
	for _, backend := range []struct {
		name string
		make func() (*BlockFilter, error)
	}{
		{"fft", func() (*BlockFilter, error) { return NewBlockFilter(HighPass, 750, 4000, block) }},
		{"iir-q15", func() (*BlockFilter, error) { return NewIIRBlockFilterQ15(LowPass, 500, 4000, block) }},
	} {
		ref, err := backend.make()
		if err != nil {
			t.Fatal(err)
		}
		var want [][]float64
		for _, seg := range segments {
			ref.Reset()
			for _, v := range seg {
				if b, ok := ref.Push(v); ok {
					want = append(want, slices.Clone(b))
				}
			}
		}
		var direct, partial int
		for c := range 4 {
			f, err := backend.make()
			if err != nil {
				t.Fatal(err)
			}
			var got [][]float64
			for _, seg := range segments {
				f.Reset()
				for _, size := range chunking(rng, len(seg), block, c > 0) {
					for chunk := seg[:size]; len(chunk) > 0; {
						if len(f.buf) == 0 && len(chunk) >= block {
							direct++
						} else if len(f.buf) > 0 && len(f.buf)+len(chunk) >= block {
							partial++
						}
						n, b, ok := f.Consume(chunk)
						if ok {
							got = append(got, slices.Clone(b))
						}
						chunk = chunk[n:]
					}
					seg = seg[size:]
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s chunking %d: %d blocks, Push emitted %d", backend.name, c, len(got), len(want))
			}
			for i := range want {
				requireSameFloatBits(t, fmt.Sprintf("%s chunking %d block %d", backend.name, c, i), got[i], want[i])
			}
		}
		if direct == 0 || partial == 0 {
			t.Fatalf("%s: %d calls with a whole block on an empty buffer, %d on a part-filled one", backend.name, direct, partial)
		}
	}
	requireSameFloatBits(t, "source after Consume", src, orig)
}

// TestWindowerConsumeMatchesSlices checks Push and Consume against the
// windows sliced straight from the stream, for untapered windows
// (returned in place and slid at the next call) and Hamming ones,
// overlapping and not, over whole-window and random chunkings with a
// Reset part way through a window.
func TestWindowerConsumeMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := make([]float64, 301)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	segments := [][]float64{src[:150], src[150:]} // Reset between
	for _, shape := range []WindowShape{Rectangular, Hamming} {
		for _, sz := range [][2]int{{8, 8}, {8, 3}, {8, 1}, {5, 5}} {
			size, step := sz[0], sz[1]
			what := fmt.Sprintf("%v size %d step %d", shape, size, step)
			var want [][]float64
			for _, seg := range segments {
				for at := 0; at+size <= len(seg); at += step {
					win := slices.Clone(seg[at : at+size])
					if shape == Hamming {
						for i, c := range HammingCoefficients(size) {
							win[i] *= c
						}
					}
					want = append(want, win)
				}
			}
			// Chunking -1 is a Push loop.
			for c := -1; c < 3; c++ {
				w, err := NewWindower(size, step, shape)
				if err != nil {
					t.Fatal(err)
				}
				var got [][]float64
				for _, seg := range segments {
					w.Reset()
					if c < 0 {
						for _, v := range seg {
							if win, ok := w.Push(v); ok {
								got = append(got, slices.Clone(win))
							}
						}
						continue
					}
					for _, n := range chunking(rng, len(seg), size, c > 0) {
						for chunk := seg[:n]; len(chunk) > 0; {
							k, win, ok := w.Consume(chunk)
							if ok {
								got = append(got, slices.Clone(win))
							}
							chunk = chunk[k:]
						}
						seg = seg[n:]
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s chunking %d: %d windows, want %d", what, c, len(got), len(want))
				}
				for i := range want {
					requireSameFloatBits(t, fmt.Sprintf("%s chunking %d window %d", what, c, i), got[i], want[i])
				}
			}
		}
	}
}
