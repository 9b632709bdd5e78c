package fleetd

import (
	"errors"
	"math"
	"testing"

	"sidewinder/internal/link"
	"sidewinder/internal/telemetry"
)

func TestProtocolRoundTrips(t *testing.T) {
	r := Resume{Version: ProtocolVersion, DeviceID: 0xDEADBEEFCAFE, LastAcked: 41}
	if got, err := DecodeResume(r.Encode()); err != nil || got != r {
		t.Fatalf("resume roundtrip: got %+v, err %v", got, err)
	}
	ra := ResumeAck{Epoch: 7, Shard: 12, AckedSeq: 40}
	if got, err := DecodeResumeAck(ra.Encode()); err != nil || got != ra {
		t.Fatalf("resume-ack roundtrip: got %+v, err %v", got, err)
	}
	we := WakeEvent{Seq: 42, Node: 3, Value: -1.5}
	if got, err := DecodeWakeEvent(we.Encode()); err != nil || got != we {
		t.Fatalf("wake roundtrip: got %+v, err %v", got, err)
	}
	ee := EnergyEvent{Seq: 99, Component: telemetry.HubDevice, MJ: 123.456}
	if got, err := DecodeEnergyEvent(ee.Encode()); err != nil || got != ee {
		t.Fatalf("energy roundtrip: got %+v, err %v", got, err)
	}
	ack := EventAck{Seq: 5, Status: AckShed}
	if got, err := DecodeEventAck(ack.Encode()); err != nil || got != ack {
		t.Fatalf("ack roundtrip: got %+v, err %v", got, err)
	}
	bye := Bye{Seq: 77}
	if got, err := DecodeBye(bye.Encode()); err != nil || got != bye {
		t.Fatalf("bye roundtrip: got %+v, err %v", got, err)
	}
	hb := Heartbeat{Seq: 11, Epoch: 2}
	if got, err := DecodeHeartbeat(hb.Encode()); err != nil || got != hb {
		t.Fatalf("heartbeat roundtrip: got %+v, err %v", got, err)
	}
}

func TestDeviceSummaryRoundTrip(t *testing.T) {
	sum := DeviceSummary{
		Seq: 1234, Wakes: 10, Heartbeats: 3, Sheds: 2, ShedMJ: 2096,
		Energy: []ComponentMJ{
			{telemetry.PhoneAsleep, 12.5},
			{telemetry.HubDevice, 0.0625},
		},
	}
	got, err := DecodeDeviceSummary(sum.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != sum.Seq || got.Wakes != sum.Wakes || got.Heartbeats != sum.Heartbeats ||
		got.Sheds != sum.Sheds || got.ShedMJ != sum.ShedMJ || len(got.Energy) != len(sum.Energy) {
		t.Fatalf("summary roundtrip: got %+v, want %+v", got, sum)
	}
	for i := range sum.Energy {
		if got.Energy[i] != sum.Energy[i] {
			t.Fatalf("energy[%d]: got %+v, want %+v", i, got.Energy[i], sum.Energy[i])
		}
	}
	// Empty energy list must survive too.
	empty := DeviceSummary{Seq: 1}
	if got, err := DecodeDeviceSummary(empty.Encode()); err != nil || len(got.Energy) != 0 {
		t.Fatalf("empty summary roundtrip: got %+v, err %v", got, err)
	}
}

// Every truncated payload must classify as malformed (a CRC-valid frame
// with a bad payload is a peer bug, not line damage) so the server knows
// to tear the connection down rather than skip and continue.
func TestTruncatedPayloadsAreMalformed(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"resume":     func(p []byte) error { _, err := DecodeResume(p); return err },
		"resume-ack": func(p []byte) error { _, err := DecodeResumeAck(p); return err },
		"wake":       func(p []byte) error { _, err := DecodeWakeEvent(p); return err },
		"energy":     func(p []byte) error { _, err := DecodeEnergyEvent(p); return err },
		"ack":        func(p []byte) error { _, err := DecodeEventAck(p); return err },
		"bye":        func(p []byte) error { _, err := DecodeBye(p); return err },
		"summary":    func(p []byte) error { _, err := DecodeDeviceSummary(p); return err },
		"heartbeat":  func(p []byte) error { _, err := DecodeHeartbeat(p); return err },
	}
	for name, dec := range decoders {
		err := dec([]byte{0x01})
		if err == nil {
			t.Fatalf("%s: decoding 1 byte should fail", name)
		}
		if !link.IsMalformed(err) {
			t.Fatalf("%s: error %v should classify as malformed", name, err)
		}
		if errors.Is(err, link.ErrCRC) || errors.Is(err, link.ErrShortFrame) {
			t.Fatalf("%s: error %v must not classify as corrupt", name, err)
		}
	}
}

func TestEnergyEventRejectsBadDeposits(t *testing.T) {
	for _, mj := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		wire := EnergyEvent{Seq: 1, Component: telemetry.HubDevice, MJ: mj}.Encode()
		if _, err := DecodeEnergyEvent(wire); err == nil {
			t.Fatalf("deposit %v should be rejected", mj)
		}
	}
	bad := EnergyEvent{Seq: 1, Component: telemetry.HubDevice, MJ: 1}.Encode()
	bad[4] = 0xFF // unknown component
	if _, err := DecodeEnergyEvent(bad); err == nil || !link.IsMalformed(err) {
		t.Fatalf("unknown component should be malformed, got %v", err)
	}
}
