package link

import (
	"fmt"
	"math/rand"
	"slices"
)

// FaultConfig parameterizes the deterministic fault injector on an
// endpoint's transmit path. The zero value disables every fault, leaving
// the link perfectly reliable (the legacy behavior). All probabilities are
// per-frame except BitFlipProb, which is per wire byte; every draw comes
// from a private PRNG seeded with Seed, so a given configuration replays
// the exact same fault sequence on every run.
type FaultConfig struct {
	// Seed initializes the injector's private PRNG.
	Seed int64
	// BitFlipProb is the per-byte probability that one random bit of a
	// wire byte is inverted (models electrical noise; usually caught by
	// the frame CRC).
	BitFlipProb float64
	// DropProb is the per-frame probability that the whole transmission
	// vanishes (models receiver overrun / missed start bit).
	DropProb float64
	// TruncateProb is the per-frame probability that transmission stops
	// at a random byte offset (models a reset mid-frame).
	TruncateProb float64
	// BurstProb is the per-frame probability of a burst error: BurstLen
	// consecutive wire bytes corrupted starting at a random offset
	// (models a noise spike longer than one symbol).
	BurstProb float64
	// BurstLen is the burst length in bytes; defaults to 4 when a burst
	// fires with BurstLen <= 0.
	BurstLen int
	// DelayProb is the per-frame probability that delivery is held back
	// by a uniform 1..DelayTicks ticks of jitter. Delayed frames are
	// released by Tick (or a later Send) and may arrive reordered.
	DelayProb float64
	// DelayTicks is the maximum jitter in ticks; defaults to 1 when a
	// delay fires with DelayTicks <= 0.
	DelayTicks int
}

// Validate checks that every probability lies in [0, 1].
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"BitFlipProb", c.BitFlipProb},
		{"DropProb", c.DropProb},
		{"TruncateProb", c.TruncateProb},
		{"BurstProb", c.BurstProb},
		{"DelayProb", c.DelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("link: fault %s must be in [0,1], got %g", p.name, p.v)
		}
	}
	if c.BurstLen < 0 {
		return fmt.Errorf("link: fault BurstLen must be >= 0, got %d", c.BurstLen)
	}
	if c.DelayTicks < 0 {
		return fmt.Errorf("link: fault DelayTicks must be >= 0, got %d", c.DelayTicks)
	}
	return nil
}

// enabled reports whether any fault can ever fire.
func (c FaultConfig) enabled() bool {
	return c.BitFlipProb > 0 || c.DropProb > 0 || c.TruncateProb > 0 ||
		c.BurstProb > 0 || c.DelayProb > 0
}

// FaultStats tallies what the injector did to the frames it saw.
type FaultStats struct {
	FramesSent      int // frames offered to the injector
	FramesDropped   int // vanished entirely
	FramesTruncated int // cut short mid-transmission
	FramesCorrupted int // at least one byte damaged (flip or burst)
	FramesDelayed   int // held back by jitter
	BitsFlipped     int // individual bit inversions
	BurstBytes      int // bytes overwritten by burst errors
}

// heldChunk is a delayed transmission waiting out its jitter.
type heldChunk struct {
	wire []byte
	ttl  int
}

// injector applies a FaultConfig to outgoing wire bytes.
type injector struct {
	cfg   FaultConfig
	rng   *rand.Rand
	held  []heldChunk
	stats FaultStats

	// Scratch reused across calls: due is transmit's and tickHeld's
	// result, mangled is mangle's copy of the frame being sent. Both stay
	// valid until the next transmit or tickHeld; a held frame keeps its
	// own copy.
	due     [][]byte
	mangled []byte
}

func newInjector(cfg FaultConfig) *injector {
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// heldCount reports how many transmissions are waiting out delay jitter.
func (in *injector) heldCount() int { return len(in.held) }

// dropHeld forgets every delayed transmission (the owning endpoint's CPU
// rebooted; its UART buffer is gone).
func (in *injector) dropHeld() { in.held = nil }

// transmit runs one frame's wire bytes through the fault lottery and
// returns the chunks to deliver now (the surviving frame, if not delayed,
// followed by any previously held frames whose jitter just elapsed —
// releasing them after the fresh frame is what produces reordering).
func (in *injector) transmit(wire []byte) [][]byte {
	in.stats.FramesSent++
	prevHeld := len(in.held)
	in.due = in.due[:0]
	if chunk, ok := in.mangle(wire); ok {
		if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
			ticks := in.cfg.DelayTicks
			if ticks <= 0 {
				ticks = 1
			}
			in.stats.FramesDelayed++
			in.held = append(in.held, heldChunk{wire: slices.Clone(chunk), ttl: 1 + in.rng.Intn(ticks)})
		} else {
			in.due = append(in.due, chunk)
		}
	}
	// Age only the frames that were already held before this
	// transmission; the freshly delayed frame keeps its full jitter.
	return in.age(prevHeld)
}

// mangle applies drop/truncate/corruption to one frame's bytes, returning
// the (possibly damaged) bytes and whether anything remains to deliver.
func (in *injector) mangle(wire []byte) ([]byte, bool) {
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		in.stats.FramesDropped++
		return nil, false
	}
	out := append(in.mangled[:0], wire...)
	in.mangled = out
	if in.cfg.TruncateProb > 0 && in.rng.Float64() < in.cfg.TruncateProb {
		in.stats.FramesTruncated++
		out = out[:in.rng.Intn(len(out))]
		if len(out) == 0 {
			return nil, false
		}
	}
	damaged := false
	if in.cfg.BurstProb > 0 && in.rng.Float64() < in.cfg.BurstProb {
		n := in.cfg.BurstLen
		if n <= 0 {
			n = 4
		}
		start := in.rng.Intn(len(out))
		for i := start; i < len(out) && i < start+n; i++ {
			out[i] = byte(in.rng.Intn(256))
			in.stats.BurstBytes++
		}
		damaged = true
	}
	if in.cfg.BitFlipProb > 0 {
		for i := range out {
			if in.rng.Float64() < in.cfg.BitFlipProb {
				out[i] ^= 1 << uint(in.rng.Intn(8))
				in.stats.BitsFlipped++
				damaged = true
			}
		}
	}
	if damaged {
		in.stats.FramesCorrupted++
	}
	return out, true
}

// tickHeld advances all jitter timers and returns the chunks whose delay
// has elapsed, in the order they were held.
func (in *injector) tickHeld() [][]byte {
	in.due = in.due[:0]
	return in.age(len(in.held))
}

// age decrements the ttl of the first n held chunks, appends those that
// reached zero to due and returns it.
func (in *injector) age(n int) [][]byte {
	rest := in.held[:0]
	for i, h := range in.held {
		if i < n {
			h.ttl--
		}
		if h.ttl <= 0 {
			in.due = append(in.due, h.wire)
			continue
		}
		rest = append(rest, h)
	}
	clear(in.held[len(rest):])
	in.held = rest
	return in.due
}
