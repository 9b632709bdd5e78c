package manager

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
	"sidewinder/internal/link"
	"sidewinder/internal/testutil"
)

// TestCorruptedFrameNeverDecodesAsOriginal is the mutation test of the
// framing layer: take a random valid pipeline, compile it, wrap the IR in
// a link frame, flip exactly one bit of the wire image — the decoder must
// never hand back the original frame intact. CRC-16/CCITT detects all
// single-bit errors, and damage to a flag or escape byte may reframe the
// stream, but what comes out can never silently equal what went in.
func TestCorruptedFrameNeverDecodesAsOriginal(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 200; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d invalid: %v", i, err)
		}
		irText := ir.CompileToText(plan)
		orig := link.Frame{Type: link.MsgConfigPush, Payload: encodeConfigPush(uint16(i+1), irText)}
		wire, err := link.Encode(orig)
		if err != nil {
			t.Fatalf("pipeline %d: encoding push frame: %v", i, err)
		}

		mutated := append([]byte(nil), wire...)
		pos := rng.Intn(len(mutated))
		mutated[pos] ^= 1 << uint(rng.Intn(8))

		var dec link.Decoder
		frames, _ := dec.Feed(mutated)
		for _, f := range frames {
			if f.Type == orig.Type && bytes.Equal(f.Payload, orig.Payload) {
				t.Fatalf("pipeline %d: single-bit corruption at byte %d went undetected", i, pos)
			}
		}
	}
}

// TestCorruptedIRTextNeverSilentlyIdentical corrupts one byte of the IR
// *text* (after framing has been stripped): the parser must either reject
// it or produce a program that is observably different — never silently
// accept a mutant as the original. This is the parser-strictness half of
// the mutation test.
func TestCorruptedIRTextNeverSilentlyIdentical(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 200; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d invalid: %v", i, err)
		}
		text := ir.CompileToText(plan)
		buf := []byte(text)
		pos := rng.Intn(len(buf))
		old := buf[pos]
		repl := byte(33 + rng.Intn(94)) // printable, avoids NUL weirdness
		for repl == old {
			repl = byte(33 + rng.Intn(94))
		}
		buf[pos] = repl

		mutant, err := ir.ParseAndBind(string(buf), cat)
		if err != nil {
			continue // rejected: fine
		}
		if ir.CompileToText(mutant) == text {
			t.Fatalf("pipeline %d: mutating byte %d (%q -> %q) was silently absorbed:\n%s",
				i, pos, old, repl, text)
		}
	}
}

// TestLossyARQEqualsLosslessRun is the end-to-end equivalence property:
// a random pipeline pushed through a lossy-but-ARQ testbed must deliver
// exactly the same wake events, sample for sample, as the same pipeline
// over a perfect wire.
func TestLossyARQEqualsLosslessRun(t *testing.T) {
	cat := core.DefaultCatalog()
	rng := rand.New(rand.NewSource(20260808))
	const samples = 300

	for i := 0; i < 20; i++ {
		p := testutil.RandomPipeline(rng)
		plan, err := p.Validate(cat)
		if err != nil {
			t.Fatalf("pipeline %d invalid: %v", i, err)
		}
		ch := plan.Channels[0]
		stream := make([]float64, samples)
		for j := range stream {
			stream[j] = rng.NormFloat64() * 10
		}

		run := func(fault *link.FaultConfig, arq *link.ARQConfig) []Event {
			tb, err := NewTestbed(TestbedConfig{BufSamples: 32, Fault: fault, ARQ: arq})
			if err != nil {
				t.Fatal(err)
			}
			var events []Event
			if _, _, err := tb.Push(p, ListenerFunc(func(e Event) {
				events = append(events, e)
			})); err != nil {
				// Some random pipelines exceed every device; skip those
				// uniformly (both runs would fail identically).
				return nil
			}
			for _, v := range stream {
				if err := tb.Feed(ch, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.Pump(); err != nil {
				t.Fatal(err)
			}
			return events
		}

		clean := run(nil, nil)
		lossy := run(&link.FaultConfig{
			Seed: int64(1000 + i), DropProb: 0.04, BitFlipProb: 0.0004,
			TruncateProb: 0.01, DelayProb: 0.02, DelayTicks: 2,
		}, &link.ARQConfig{})

		if len(clean) != len(lossy) {
			t.Fatalf("pipeline %d: %d clean events vs %d lossy events", i, len(clean), len(lossy))
		}
		for j := range clean {
			c, l := clean[j], lossy[j]
			if c.CondID != l.CondID || c.SampleIndex != l.SampleIndex {
				t.Fatalf("pipeline %d event %d: identity differs: %+v vs %+v", i, j, c, l)
			}
			if math.IsNaN(c.Value) != math.IsNaN(l.Value) ||
				(!math.IsNaN(c.Value) && c.Value != l.Value) {
				t.Fatalf("pipeline %d event %d: value differs: %v vs %v", i, j, c.Value, l.Value)
			}
			if len(c.Data) != len(l.Data) {
				t.Fatalf("pipeline %d event %d: data channels differ", i, j)
			}
			for dch, cs := range c.Data {
				ls := l.Data[dch]
				if len(cs) != len(ls) {
					t.Fatalf("pipeline %d event %d: %s buffer length differs", i, j, dch)
				}
				for k := range cs {
					if cs[k] != ls[k] && !(math.IsNaN(cs[k]) && math.IsNaN(ls[k])) {
						t.Fatalf("pipeline %d event %d: %s[%d] differs: %v vs %v",
							i, j, dch, k, cs[k], ls[k])
					}
				}
			}
		}
	}
}
