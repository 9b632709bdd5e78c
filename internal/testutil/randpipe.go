// Package testutil provides test-support helpers shared across packages,
// chiefly a generator of random *valid* wake-up conditions used for
// property-based testing of the compiler/parser/interpreter stack.
package testutil

import (
	"fmt"
	"math"
	"math/rand"

	"sidewinder/internal/core"
)

// RandomPipeline generates a random wake-up condition that is valid by
// construction: every branch obeys the catalog's kind rules (scalar chains,
// optional windowing into vector features back to scalars) and the
// pipeline ends in an admission-control stage. The generated space covers
// all sensor channels, window shapes, statistics, transforms, filters and
// aggregators.
func RandomPipeline(rng *rand.Rand) *core.Pipeline {
	p := core.NewPipeline(fmt.Sprintf("rand-%d", rng.Int31()))
	nBranches := 1 + rng.Intn(3)

	// Aggregators need matching emission rates: make every branch share
	// one channel and one windowing decision so rates line up.
	channels := core.Channels()
	ch := channels[rng.Intn(len(channels))]
	windowed := rng.Intn(2) == 0
	winSize := 8 << rng.Intn(4) // 8..64
	for b := 0; b < nBranches; b++ {
		branch := core.NewBranch(ch)
		// Scalar prefix.
		for i := rng.Intn(3); i > 0; i-- {
			branch.Add(randScalarStage(rng, ch))
		}
		if windowed {
			shape := "rectangular"
			if rng.Intn(2) == 0 {
				shape = "hamming"
			}
			branch.Add(core.Window(winSize, 0, shape))
			branch.Add(randVectorReducer(rng, winSize))
		}
		// Scalar suffix.
		for i := rng.Intn(2); i > 0; i-- {
			branch.Add(randScalarStage(rng, ch))
		}
		if nBranches > 1 {
			// Pre-aggregator branches must end scalar; they already do.
			branch.Add(core.MinThreshold(normal(rng)))
		}
		p.AddBranch(branch)
	}
	if nBranches > 1 {
		if nBranches == 2 && rng.Intn(2) == 0 {
			p.Add(core.Ratio())
		} else if rng.Intn(2) == 0 {
			p.Add(core.And())
		} else {
			p.Add(core.VectorMagnitude())
		}
	}
	// Final admission control.
	switch rng.Intn(3) {
	case 0:
		p.Add(core.MinThresholdSustained(normal(rng)*5, 1+rng.Intn(3)))
	case 1:
		p.Add(core.MaxThreshold(normal(rng) * 5))
	default:
		lo := normal(rng) * 3
		p.Add(core.BandThreshold(lo, lo+rng.Float64()*5))
	}
	return p
}

// normal draws a standard normal threshold. NormFloat64's tail takes the
// log of a Float64 draw, so a source that yields a zero Float64 (a fuzz
// input can) gives an infinite value; only such a draw is redrawn, so every
// seed that drew finite values still generates the same pipeline. A source
// stuck on non-finite draws gets 0.
func normal(rng *rand.Rand) float64 {
	for range 16 {
		if v := rng.NormFloat64(); math.Abs(v) <= math.MaxFloat64 {
			return v
		}
	}
	return 0
}

// randScalarStage returns a scalar-to-scalar stage.
func randScalarStage(rng *rand.Rand, ch core.SensorChannel) core.Stage {
	switch rng.Intn(6) {
	case 0:
		return core.MovingAverage(1 + rng.Intn(12))
	case 1:
		return core.ExpMovingAverage(0.05 + 0.9*rng.Float64())
	case 2:
		return core.Delta()
	case 3:
		return core.Abs()
	case 4:
		rate := ch.Rate()
		return core.IIRLowPass(rate/8+rng.Float64()*rate/8, rate)
	default:
		rate := ch.Rate()
		return core.IIRHighPass(rate/16+rng.Float64()*rate/16, rate)
	}
}

// randVectorReducer returns a stage chain's vector-to-scalar tail for a
// window of the given size, possibly via the FFT.
func randVectorReducer(rng *rand.Rand, winSize int) core.Stage {
	ops := core.StatOps
	switch rng.Intn(4) {
	case 0:
		return core.Stat(ops[rng.Intn(len(ops))])
	case 1:
		return core.ZeroCrossingRate()
	case 2:
		k := 2
		if winSize >= 16 {
			k = 4
		}
		return core.ZCRVariance(k)
	default:
		return core.Stat("rms")
	}
}
