package link

import (
	"bytes"
	"testing"
)

// arqPair wraps both ends of a fresh pipe in ARQ.
func arqPair(t *testing.T, cfg ARQConfig) (*ARQ, *ARQ) {
	t.Helper()
	a, b := mustPipe(t)
	return NewARQ(a, cfg), NewARQ(b, cfg)
}

// pumpARQ ticks both sides until both are idle or the round budget runs
// out, draining delivered frames into the returned slice (receiver side).
func pumpARQ(sender, receiver *ARQ, rounds int) []Frame {
	var got []Frame
	for i := 0; i < rounds; i++ {
		sender.Tick()
		receiver.Tick()
		for {
			f, ok := receiver.Receive()
			if !ok {
				break
			}
			got = append(got, f)
		}
		for { // drain acks / passthrough on the sender side too
			if _, ok := sender.Receive(); !ok {
				break
			}
		}
		if sender.Idle() && receiver.Idle() {
			break
		}
	}
	return got
}

func TestARQDeliversInOrderOnCleanLink(t *testing.T) {
	s, r := arqPair(t, ARQConfig{})
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Send(Frame{Type: MsgData, Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	got := pumpARQ(s, r, 100)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, f := range got {
		if f.Type != MsgData || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: %+v", i, f)
		}
	}
	st := s.Stats()
	if st.Retransmits != 0 || st.Dead != 0 || st.DataAcked != n {
		t.Fatalf("clean-link stats: %+v", st)
	}
}

func TestARQRecoversFromFrameLoss(t *testing.T) {
	s, r := arqPair(t, ARQConfig{})
	// 30% frame drop on the data direction.
	if err := s.Raw().SetFaults(FaultConfig{Seed: 21, DropProb: 0.3}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Send(Frame{Type: MsgData, Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	got := pumpARQ(s, r, 4000)
	if len(got) != n {
		t.Fatalf("delivered %d of %d under 30%% loss", len(got), n)
	}
	for i, f := range got {
		if f.Payload[0] != byte(i) {
			t.Fatalf("frame %d delivered out of order", i)
		}
	}
	st := s.Stats()
	if st.Retransmits == 0 {
		t.Fatal("loss recovered without retransmissions?")
	}
	if st.Dead != 0 {
		t.Fatalf("frames died under recoverable loss: %+v", st)
	}
	if st.OverheadBytes == 0 {
		t.Fatal("no overhead accounted")
	}
}

func TestARQSuppressesDuplicatesWhenAcksAreLost(t *testing.T) {
	s, r := arqPair(t, ARQConfig{})
	// Drop half the ack direction: the sender retransmits frames the
	// receiver already has, and the receiver must suppress them.
	if err := r.Raw().SetFaults(FaultConfig{Seed: 8, DropProb: 0.5}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := s.Send(Frame{Type: MsgData, Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	got := pumpARQ(s, r, 4000)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	if st := r.Stats(); st.DupsDropped == 0 {
		t.Fatalf("lost acks produced no duplicates to suppress: %+v", st)
	}
}

func TestARQBoundedRetriesDeclareFrameDead(t *testing.T) {
	s, r := arqPair(t, ARQConfig{MaxRetries: 3})
	if err := s.Raw().SetFaults(FaultConfig{Seed: 1, DropProb: 1}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	want := Frame{Type: MsgWake, Payload: []byte{0xAB}}
	if err := s.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	pumpARQ(s, r, 4000)
	if !s.Idle() {
		t.Fatal("sender never gave up")
	}
	st := s.Stats()
	if st.Dead != 1 || st.Retransmits != 3 {
		t.Fatalf("dead-frame stats: %+v", st)
	}
	dead := s.TakeDead()
	if len(dead) != 1 || dead[0].Type != want.Type || !bytes.Equal(dead[0].Payload, want.Payload) {
		t.Fatalf("TakeDead: %+v", dead)
	}
	if len(s.TakeDead()) != 0 {
		t.Fatal("TakeDead did not clear")
	}
}

func TestARQBackoffIsCapped(t *testing.T) {
	s, r := arqPair(t, ARQConfig{TimeoutTicks: 1, MaxTimeoutTicks: 4, MaxRetries: 6})
	if err := s.Raw().SetFaults(FaultConfig{Seed: 2, DropProb: 1}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	if err := s.Send(Frame{Type: MsgPing}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Backoff 1,2,4,4,4,4 → the frame must be dead within ~25 ticks. An
	// uncapped doubling (1+2+4+8+16+32) would still be waiting at 25.
	for i := 0; i < 25; i++ {
		s.Tick()
		r.Tick()
	}
	if s.Stats().Dead != 1 {
		t.Fatalf("backoff cap not honored: %+v", s.Stats())
	}
}

func TestARQLossyPassthrough(t *testing.T) {
	s, r := arqPair(t, ARQConfig{})
	if err := s.SendLossy(Frame{Type: MsgPing, Payload: []byte{1, 0, 1}}); err != nil {
		t.Fatalf("SendLossy: %v", err)
	}
	f, ok := r.Receive()
	if !ok || f.Type != MsgPing {
		t.Fatalf("lossy frame not passed through: %+v ok=%v", f, ok)
	}
	st := s.Stats()
	if st.LossySent != 1 || st.DataSent != 0 {
		t.Fatalf("lossy stats: %+v", st)
	}
}

func TestARQSequenceWraparound(t *testing.T) {
	s, r := arqPair(t, ARQConfig{})
	// More frames than the 1-byte sequence space.
	const n = 300
	for i := 0; i < n; i++ {
		if err := s.Send(Frame{Type: MsgData, Payload: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	got := pumpARQ(s, r, 2000)
	if len(got) != n {
		t.Fatalf("delivered %d of %d across seq wraparound", len(got), n)
	}
	for i, f := range got {
		if f.Payload[0] != byte(i) || f.Payload[1] != byte(i>>8) {
			t.Fatalf("frame %d wrong after wraparound", i)
		}
	}
}
