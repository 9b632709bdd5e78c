package link

import (
	"bytes"
	"errors"
	"testing"
)

func mustPipe(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	a, b, err := Pipe(115200)
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	return a, b
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{BitFlipProb: 2},
		{TruncateProb: -1},
		{BurstProb: 1.01},
		{DelayProb: 7},
		{BurstLen: -1},
		{DelayTicks: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error, got nil", i)
		}
	}
	if err := (FaultConfig{Seed: 9, DropProb: 0.5, BurstLen: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestZeroFaultConfigIsPassthrough(t *testing.T) {
	a, b := mustPipe(t)
	if err := a.SetFaults(FaultConfig{Seed: 42}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	f := Frame{Type: MsgData, Payload: []byte{1, 2, 3}}
	if err := a.Send(f); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, ok := b.Receive()
	if !ok || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("zero fault config altered delivery: %+v ok=%v", got, ok)
	}
	if s := a.FaultStats(); s != (FaultStats{}) {
		t.Fatalf("zero config accrued stats: %+v", s)
	}
}

func TestDropProbOneDropsEverything(t *testing.T) {
	a, b := mustPipe(t)
	if err := a.SetFaults(FaultConfig{Seed: 1, DropProb: 1}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := a.Send(Frame{Type: MsgPing}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("dropped frames were delivered: %d pending", b.Pending())
	}
	s := a.FaultStats()
	if s.FramesSent != 20 || s.FramesDropped != 20 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBitFlipsAreDetectedByCRC(t *testing.T) {
	a, b := mustPipe(t)
	// Flip roughly one byte per frame: corrupted frames must be rejected
	// by the receiver's decoder, never delivered mangled.
	if err := a.SetFaults(FaultConfig{Seed: 7, BitFlipProb: 0.05}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 32)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(Frame{Type: MsgData, Payload: payload}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	delivered := 0
	for {
		f, ok := b.Receive()
		if !ok {
			break
		}
		if f.Type != MsgData || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("corrupted frame delivered: %+v", f)
		}
		delivered++
	}
	s := a.FaultStats()
	if s.FramesCorrupted == 0 || s.BitsFlipped == 0 {
		t.Fatalf("injector never corrupted anything: %+v", s)
	}
	if delivered+b.RxCorrupt() < n {
		// A flip may hit a flag byte and merge two frames into one
		// CRC-failing blob, so delivered+corrupt can fall slightly
		// short of n — but most frames must be accounted for.
		if delivered+b.RxCorrupt() < n*9/10 {
			t.Fatalf("accounting hole: delivered=%d corrupt=%d of %d", delivered, b.RxCorrupt(), n)
		}
	}
	if delivered == 0 {
		t.Fatal("no frame survived a 5% per-byte flip rate")
	}
}

func TestTruncationYieldsCorruptNotMalformed(t *testing.T) {
	a, b := mustPipe(t)
	if err := a.SetFaults(FaultConfig{Seed: 3, TruncateProb: 1}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	payload := []byte{9, 8, 7, 6, 5}
	for i := 0; i < 50; i++ {
		if err := a.Send(Frame{Type: MsgData, Payload: payload}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Truncation is line damage: it must register as corrupt frames,
	// never as malformed ones. A frame that lost only its closing flag
	// legitimately survives (the next frame's opening flag terminates
	// it), but anything delivered must be byte-identical.
	if b.RxMalformed() != 0 {
		t.Fatalf("truncation classified as malformed: %d", b.RxMalformed())
	}
	if b.RxCorrupt() == 0 {
		t.Fatal("50 truncated frames produced no corrupt rejections")
	}
	for {
		got, ok := b.Receive()
		if !ok {
			break
		}
		if got.Type != MsgData || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("truncated frame delivered mangled: %+v", got)
		}
	}
}

func TestBurstErrors(t *testing.T) {
	a, b := mustPipe(t)
	if err := a.SetFaults(FaultConfig{Seed: 11, BurstProb: 1, BurstLen: 6}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	payload := bytes.Repeat([]byte{0x42}, 40)
	for i := 0; i < 30; i++ {
		if err := a.Send(Frame{Type: MsgData, Payload: payload}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s := a.FaultStats()
	if s.FramesCorrupted != 30 || s.BurstBytes == 0 {
		t.Fatalf("burst stats: %+v", s)
	}
	for {
		f, ok := b.Receive()
		if !ok {
			break
		}
		// A burst can randomly rewrite bytes into another valid frame
		// only with CRC-collision odds; any delivered frame must be
		// byte-identical.
		if !bytes.Equal(f.Payload, payload) {
			t.Fatalf("burst-corrupted frame delivered: %+v", f)
		}
	}
}

func TestDelayJitterHoldsAndReleases(t *testing.T) {
	a, b := mustPipe(t)
	if err := a.SetFaults(FaultConfig{Seed: 5, DelayProb: 1, DelayTicks: 1}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	if err := a.Send(Frame{Type: MsgPing}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if b.Pending() != 0 {
		t.Fatal("delayed frame arrived immediately")
	}
	if a.Idle() {
		t.Fatal("endpoint claims idle with a held frame")
	}
	a.Tick()
	if b.Pending() != 1 {
		t.Fatalf("delayed frame not released on tick: pending=%d", b.Pending())
	}
	if !a.Idle() {
		t.Fatal("endpoint not idle after flush")
	}
	if s := a.FaultStats(); s.FramesDelayed != 1 {
		t.Fatalf("delay stats: %+v", s)
	}
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	run := func() (FaultStats, []Frame, int) {
		a, b := mustPipe(t)
		if err := a.SetFaults(FaultConfig{
			Seed: 99, BitFlipProb: 0.01, DropProb: 0.1,
			TruncateProb: 0.05, BurstProb: 0.02, BurstLen: 4,
			DelayProb: 0.1, DelayTicks: 2,
		}); err != nil {
			t.Fatalf("SetFaults: %v", err)
		}
		for i := 0; i < 100; i++ {
			if err := a.Send(Frame{Type: MsgData, Payload: []byte{byte(i), byte(i >> 1)}}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			a.Tick()
		}
		var got []Frame
		for {
			f, ok := b.Receive()
			if !ok {
				break
			}
			got = append(got, f)
		}
		return a.FaultStats(), got, b.RxCorrupt()
	}
	s1, f1, c1 := run()
	s2, f2, c2 := run()
	if s1 != s2 || c1 != c2 || len(f1) != len(f2) {
		t.Fatalf("non-deterministic: %+v/%d/%d vs %+v/%d/%d", s1, c1, len(f1), s2, c2, len(f2))
	}
	for i := range f1 {
		if f1[i].Type != f2[i].Type || !bytes.Equal(f1[i].Payload, f2[i].Payload) {
			t.Fatalf("frame %d differs between identical runs", i)
		}
	}
}

func TestDecoderErrorClassification(t *testing.T) {
	// A truncated body (under 5 bytes between flags) is line damage.
	var d Decoder
	_, err := d.Feed([]byte{flagByte, 0x01, 0x02, 0x03, flagByte})
	if !errors.Is(err, ErrShortFrame) || IsMalformed(err) {
		t.Fatalf("short frame misclassified: %v", err)
	}
	if d.Corrupt() != 1 || d.Malformed() != 0 {
		t.Fatalf("counters after short frame: corrupt=%d malformed=%d", d.Corrupt(), d.Malformed())
	}

	// A CRC-valid frame whose declared length disagrees with its actual
	// payload is a sender bug, not line damage.
	body := []byte{byte(MsgData), 0x00, 0x05, 1, 2, 3} // declares 5, carries 3
	crc := crc16(body)
	wire := append([]byte{flagByte}, body...)
	wire = append(wire, byte(crc>>8), byte(crc), flagByte)
	var d2 Decoder
	_, err = d2.Feed(wire)
	if !errors.Is(err, ErrLengthMismatch) || !IsMalformed(err) || errors.Is(err, ErrCRC) || errors.Is(err, ErrShortFrame) {
		t.Fatalf("length mismatch misclassified: %v", err)
	}
	if d2.Corrupt() != 0 || d2.Malformed() != 1 {
		t.Fatalf("counters after mismatch: corrupt=%d malformed=%d", d2.Corrupt(), d2.Malformed())
	}
}

func TestDecoderContinuesPastDamagedFrame(t *testing.T) {
	good := mustEncode(t, Frame{Type: MsgPing})
	bad := mustEncode(t, Frame{Type: MsgData, Payload: []byte{1, 2, 3}})
	bad[4] ^= 0x10 // corrupt inside the body
	var d Decoder
	frames, err := d.Feed(append(append([]byte{}, bad...), good...))
	if err == nil {
		t.Fatal("corruption not reported")
	}
	if len(frames) != 1 || frames[0].Type != MsgPing {
		t.Fatalf("good frame after damaged one was lost: %+v", frames)
	}
}
