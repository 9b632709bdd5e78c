package link

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// referenceEncode is the two-pass encoder the one-pass AppendEncode must
// reproduce byte for byte: build the raw body, checksum it, then stuff it.
func referenceEncode(f Frame) []byte {
	raw := []byte{byte(f.Type), byte(len(f.Payload) >> 8), byte(len(f.Payload))}
	raw = append(raw, f.Payload...)
	crc := crc16(raw)
	raw = append(raw, byte(crc>>8), byte(crc))
	out := []byte{flagByte}
	for _, b := range raw {
		if b == flagByte || b == escapeByte {
			out = append(out, escapeByte, b^escapeXor)
			continue
		}
		out = append(out, b)
	}
	return append(out, flagByte)
}

// randomFrame draws a frame whose type and payload bytes are often the
// flag or escape byte, so stuffing runs on the header, the payload and,
// by chance, the CRC. Payloads are empty, short, long, or the 0xFFFF
// maximum.
func randomFrame(rng *rand.Rand) Frame {
	pick := func() byte {
		switch rng.Intn(4) {
		case 0:
			return flagByte
		case 1:
			return escapeByte
		default:
			return byte(rng.Intn(256))
		}
	}
	var n int
	switch r := rng.Intn(20); {
	case r == 0:
		n = 0
	case r == 1:
		n = 0xFFFF
	case r < 5:
		n = 0x7D00 + rng.Intn(0x200) // a length byte that needs escaping
	default:
		n = rng.Intn(64)
	}
	f := Frame{Type: MsgType(pick())}
	if n > 0 {
		f.Payload = make([]byte, n)
		for i := range f.Payload {
			f.Payload[i] = pick()
		}
	}
	return f
}

// TestAppendEncodeMatchesReference: for random frames, AppendEncode onto
// a prefix (with and without spare capacity) leaves the prefix intact and
// appends exactly the reference encoding, which Encode returns alone.
func TestAppendEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		f := randomFrame(rng)
		want := referenceEncode(f)
		got, err := Encode(f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: Encode differs from the reference (err %v)", i, err)
		}
		prefix := make([]byte, rng.Intn(8), 8+rng.Intn(2*len(want)))
		rng.Read(prefix)
		kept := slices.Clone(prefix)
		out, err := AppendEncode(prefix, f)
		if err != nil {
			t.Fatalf("frame %d: AppendEncode: %v", i, err)
		}
		if !bytes.Equal(out[:len(kept)], kept) || !bytes.Equal(out[len(kept):], want) {
			t.Fatalf("frame %d: AppendEncode(prefix, f) is not prefix + Encode(f)", i)
		}
	}
	huge := Frame{Type: MsgData, Payload: make([]byte, 0x10000)}
	prefix := []byte{1, 2, 3}
	if out, err := AppendEncode(prefix, huge); err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("oversized AppendEncode = %v, %v; want the prefix back and an error", out, err)
	}
}

// TestFeedAppendMatchesFeed streams random frames with short noise bursts
// between some of them, cut into random chunks. At every chunk
// FeedAppend onto a prefix of sentinel frames must return the prefix
// followed by exactly what Feed returns for the same chunk on a twin
// decoder, with the same error and counters; over the whole stream the
// frames must come back in order.
func TestFeedAppendMatchesFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		var sent []Frame
		var stream []byte
		for i := 0; i < 1+rng.Intn(12); i++ {
			if rng.Intn(3) == 0 {
				// Noise shorter than a frame body: the decoder either
				// skips it or rejects it as a short frame.
				for j := 0; j < 1+rng.Intn(4); j++ {
					stream = append(stream, byte(rng.Intn(0x7D)))
				}
			}
			f := randomFrame(rng)
			sent = append(sent, f)
			stream = append(stream, referenceEncode(f)...)
		}
		prefix := []Frame{{Type: 0xEE, Payload: []byte{0xEE}}, {Type: 0xEF}}
		var fed, appended Decoder
		var got []Frame
		for rest := stream; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(64))
			if rng.Intn(4) == 0 {
				n = min(len(rest), 1+rng.Intn(1<<17))
			}
			chunk := rest[:n]
			rest = rest[n:]
			want, wantErr := fed.Feed(chunk)
			dst := append(make([]Frame, 0, len(prefix)+rng.Intn(4)), prefix...)
			out, err := appended.FeedAppend(dst, chunk)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("trial %d: FeedAppend error %v, Feed error %v", trial, err, wantErr)
			}
			if !framesEqual(out[:len(prefix)], prefix) || !framesEqual(out[len(prefix):], want) {
				t.Fatalf("trial %d: FeedAppend(dst, chunk) is not dst + Feed(chunk)", trial)
			}
			got = append(got, want...)
		}
		if fed.Corrupt() != appended.Corrupt() || fed.Malformed() != appended.Malformed() {
			t.Fatalf("trial %d: counters differ: %d/%d vs %d/%d", trial,
				fed.Corrupt(), fed.Malformed(), appended.Corrupt(), appended.Malformed())
		}
		if !framesEqual(got, sent) {
			t.Fatalf("trial %d: decoded %d frames, sent %d, or they differ", trial, len(got), len(sent))
		}
	}
}

// TestDecodedPayloadsAreOwned: short payloads share the decoder's slab,
// yet each belongs to its receiver alone: appending to one must not
// overwrite the next frame's bytes.
func TestDecodedPayloadsAreOwned(t *testing.T) {
	var wire []byte
	for _, p := range [][]byte{{1, 2, 3}, {4, 5, 6}} {
		wire = append(wire, mustEncode(t, Frame{Type: MsgWake, Payload: p})...)
	}
	var dec Decoder
	got, err := dec.Feed(wire)
	if err != nil || len(got) != 2 {
		t.Fatalf("decoded %d frames, err %v", len(got), err)
	}
	_ = append(got[0].Payload, 9, 9, 9)
	if !bytes.Equal(got[1].Payload, []byte{4, 5, 6}) {
		t.Fatalf("appending to one payload changed the next: %v", got[1].Payload)
	}
}

func framesEqual(a, b []Frame) bool {
	return slices.EqualFunc(a, b, func(x, y Frame) bool {
		return x.Type == y.Type && bytes.Equal(x.Payload, y.Payload)
	})
}

// TestARQRoundTripAllocs: once warm, a fault-free reliable round trip
// (Send, both sides' Tick, Receive) allocates at most the payload the
// receiving decoder copies out for the application. A short payload (and
// the one-byte ack) is carved from the decoder's slab, so it averages
// below one allocation; a payload beyond slabMax gets its own.
func TestARQRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		size      int
		maxAllocs float64
	}{{18, 0}, {slabMax + 36, 1}} {
		s, r := arqPair(t, ARQConfig{})
		payload := make([]byte, tc.size)
		for i := range payload {
			payload[i] = byte(0x7B + i%4) // runs through both framing bytes
		}
		var got Frame
		round := func() {
			if err := s.Send(Frame{Type: MsgWake, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			r.Tick()
			s.Tick()
			f, ok := r.Receive()
			if !ok || !s.Idle() {
				t.Fatal("the round trip did not complete")
			}
			got = f
		}
		for i := 0; i < 4; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(200, round); allocs > tc.maxAllocs {
			t.Errorf("%d-byte payload: warm ARQ round trip allocates %.0f times, want at most %.0f",
				tc.size, allocs, tc.maxAllocs)
		}
		if got.Type != MsgWake || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%d-byte payload: received %+v", tc.size, got)
		}
	}
}

// BenchmarkLinkARQ is one reliable frame's round trip over a clean wire:
// Send, the receiver's Tick (decode, ack, deliver), the sender's Tick
// (decode the ack) and Receive, pinning the link layer's allocations
// (make bench-check).
func BenchmarkLinkARQ(b *testing.B) {
	pa, pb, err := Pipe(115200)
	if err != nil {
		b.Fatal(err)
	}
	s, r := NewARQ(pa, ARQConfig{}), NewARQ(pb, ARQConfig{})
	payload := make([]byte, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Send(Frame{Type: MsgWake, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		r.Tick()
		s.Tick()
		if _, ok := r.Receive(); !ok {
			b.Fatal("frame not delivered")
		}
	}
}
