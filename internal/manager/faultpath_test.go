package manager

import (
	"errors"
	"testing"

	"sidewinder/internal/link"
	"sidewinder/internal/resilience"
)

// rawPair builds a manager and hub on a raw pipe, returning the loose
// endpoints so tests can inject hand-crafted frames from either side.
func rawPair(t *testing.T) (*Manager, *HubNode, *link.Endpoint, *link.Endpoint) {
	t.Helper()
	phoneEnd, hubEnd, err := link.Pipe(115200)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(phoneEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHubNode(hubEnd, nil, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	return m, h, phoneEnd, hubEnd
}

// Malformed payloads must be counted and skipped, not kill the service
// loop: over a lossy link they are routine, and over a clean one they are
// a peer bug the runtime should survive.

func TestHubSkipsMalformedPayloads(t *testing.T) {
	m, h, phoneEnd, _ := rawPair(t)

	// Push payload too short to carry even a condition ID.
	phoneEnd.Send(link.Frame{Type: link.MsgConfigPush, Payload: []byte{0x01}})
	// Remove payload of the wrong size.
	phoneEnd.Send(link.Frame{Type: link.MsgRemove, Payload: []byte{1, 2, 3}})
	// The retired feedback type (0x09) from an old peer.
	phoneEnd.Send(link.Frame{Type: link.MsgType(0x09), Payload: []byte{1, 0, 1}})
	// Unknown frame type.
	phoneEnd.Send(link.Frame{Type: 0x7A})

	if err := h.Service(); err != nil {
		t.Fatalf("hub service died on malformed input: %v", err)
	}
	if got := h.DroppedFrames(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	// The loop must still work afterwards: a valid push goes through.
	if err := m.Service(); err != nil {
		t.Fatal(err)
	}
	id, err := m.Push(significantMotion(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	if err := m.Service(); err != nil {
		t.Fatal(err)
	}
	if _, ready, serr := m.Status(id); !ready || serr != nil {
		t.Fatalf("push after malformed traffic: ready=%v err=%v", ready, serr)
	}
}

func TestManagerSkipsMalformedPayloads(t *testing.T) {
	m, _, _, hubEnd := rawPair(t)

	hubEnd.Send(link.Frame{Type: link.MsgConfigAck, Payload: []byte{0x01}}) // too short
	hubEnd.Send(link.Frame{Type: link.MsgConfigError, Payload: []byte{}})   // empty
	hubEnd.Send(link.Frame{Type: link.MsgWake, Payload: []byte{1, 2, 3}})   // not 18 bytes
	hubEnd.Send(link.Frame{Type: link.MsgData, Payload: []byte{0, 1, 9}})   // truncated header
	hubEnd.Send(link.Frame{Type: link.MsgPong})                             // no heartbeat
	hubEnd.Send(link.Frame{Type: 0x6F})                                     // unknown type

	if err := m.Service(); err != nil {
		t.Fatalf("manager service died on malformed input: %v", err)
	}
	if got := m.DroppedFrames(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

// TestHubDropsEmptyPing: the heartbeat is the only liveness ping, so a
// ping without one is a dropped frame and gets no pong, while a
// heartbeat ping is answered with this hub's epoch.
func TestHubDropsEmptyPing(t *testing.T) {
	_, h, phoneEnd, _ := rawPair(t)

	phoneEnd.Send(link.Frame{Type: link.MsgPing})
	if err := h.Service(); err != nil {
		t.Fatalf("hub service died on an empty ping: %v", err)
	}
	if got := h.DroppedFrames(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if f, ok := phoneEnd.Receive(); ok {
		t.Fatalf("empty ping answered with %v", f.Type)
	}

	phoneEnd.Send(link.Frame{Type: link.MsgPing, Payload: resilience.Heartbeat{Seq: 7, Epoch: 1}.Encode()})
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	f, ok := phoneEnd.Receive()
	if !ok || f.Type != link.MsgPong {
		t.Fatalf("heartbeat ping got no pong (frame %v, ok %v)", f.Type, ok)
	}
	if hb, err := resilience.DecodeHeartbeat(f.Payload); err != nil || hb.Seq != 7 {
		t.Fatalf("pong = %+v, err %v; want seq 7", hb, err)
	}
	if got := h.DroppedFrames(); got != 1 {
		t.Fatalf("heartbeat ping counted as dropped: %d", got)
	}
}

// TestHubRejectsGarbageIRButSurvives: a decodable push whose IR does not
// parse is a config failure (MsgConfigError), distinct from line damage.
func TestHubRejectsGarbageIRButSurvives(t *testing.T) {
	m, h, _, _ := rawPair(t)
	// Send a push with a valid envelope but garbage program text by
	// bypassing the pipeline compiler.
	m.pushes[42] = &pushState{listener: ListenerFunc(func(Event) {}), irText: "not an ir program"}
	if err := m.Repush(42); err != nil {
		t.Fatal(err)
	}
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	if err := m.Service(); err != nil {
		t.Fatal(err)
	}
	_, ready, serr := m.Status(42)
	if !ready || serr == nil {
		t.Fatalf("garbage IR not rejected: ready=%v err=%v", ready, serr)
	}
	if h.DroppedFrames() != 0 {
		t.Fatalf("well-formed push counted as dropped: %d", h.DroppedFrames())
	}
	if h.Loaded() != 0 {
		t.Fatalf("garbage IR loaded: %d", h.Loaded())
	}
}

// TestHubReacksDuplicatePush: a retransmitted push with identical IR is
// idempotent — the hub re-acks instead of double-loading or rejecting, so
// a manager whose ack was lost can recover with Repush.
func TestHubReacksDuplicatePush(t *testing.T) {
	m, h, _, _ := rawPair(t)
	id, err := m.Push(significantMotion(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	// Drop the ack on the floor (simulate loss), then re-push.
	for {
		if _, ok := m.ep.Receive(); !ok {
			break
		}
	}
	if err := m.Repush(id); err != nil {
		t.Fatal(err)
	}
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	if err := m.Service(); err != nil {
		t.Fatal(err)
	}
	device, ready, serr := m.Status(id)
	if !ready || serr != nil || device != "MSP430" {
		t.Fatalf("duplicate push not re-acked: ready=%v err=%v device=%s", ready, serr, device)
	}
	if h.Loaded() != 1 {
		t.Fatalf("duplicate push double-loaded: %d", h.Loaded())
	}
	// A duplicate ID with a *different* program is still an error.
	m.pushes[id].irText = "ACC_X -> movingAvg(id=1, params={4}); 1 -> OUT;"
	if err := m.Repush(id); err != nil {
		t.Fatal(err)
	}
	if err := h.Service(); err != nil {
		t.Fatal(err)
	}
	if err := m.Service(); err != nil {
		t.Fatal(err)
	}
	if _, _, serr := m.Status(id); serr == nil {
		t.Fatal("conflicting duplicate push was not rejected")
	}
}

// TestDeadConfigPushSurfacesLinkDown: when the ARQ layer exhausts its
// retries on a config push, Status must report ErrLinkDown (retryable via
// Repush) rather than hanging un-acked forever.
func TestDeadConfigPushSurfacesLinkDown(t *testing.T) {
	phoneEnd, hubEnd, err := link.Pipe(115200)
	if err != nil {
		t.Fatal(err)
	}
	// The phone's transmissions all vanish; the hub never hears the push.
	if err := phoneEnd.SetFaults(link.FaultConfig{Seed: 4, DropProb: 1}); err != nil {
		t.Fatal(err)
	}
	phonePort := link.NewARQ(phoneEnd, link.ARQConfig{TimeoutTicks: 1, MaxRetries: 2})
	hubPort := link.NewARQ(hubEnd, link.ARQConfig{})
	m, err := New(phonePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHubNode(hubPort, nil, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Push(significantMotion(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := h.Service(); err != nil {
			t.Fatal(err)
		}
		if err := m.Service(); err != nil {
			t.Fatal(err)
		}
	}
	_, ready, serr := m.Status(id)
	if !ready || !errors.Is(serr, link.ErrLinkDown) {
		t.Fatalf("dead push not surfaced: ready=%v err=%v", ready, serr)
	}
}
