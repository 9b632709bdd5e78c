package fleetd

import (
	"bytes"
	"math"
	"testing"

	"sidewinder/internal/telemetry"
)

// FuzzDecodePayloads throws arbitrary bytes at every fleet payload
// decoder. No decoder may panic, and for any payload p that decodes,
// Decode(Encode(Decode(p))) must equal Decode(p). Values are compared
// through their encodings, so NaN floats compare bit for bit; since every
// codec carries its fields verbatim, Encode(Decode(p)) must also be p.
func FuzzDecodePayloads(f *testing.F) {
	f.Add([]byte{})
	f.Add(Hello{Version: ProtocolVersion, DeviceID: 0xDEADBEEFCAFE}.Encode())
	f.Add(HelloAck{Epoch: 7, Shard: 12}.Encode())
	f.Add(Resume{Version: ProtocolVersion, DeviceID: 9, LastAcked: 41}.Encode())
	f.Add(ResumeAck{Epoch: 3, Shard: 1, AckedSeq: 40}.Encode())
	f.Add(WakeEvent{Seq: 42, Node: 3, Value: math.NaN()}.Encode())
	f.Add(EnergyEvent{Seq: 99, Component: telemetry.HubDevice, MJ: 123.456}.Encode())
	f.Add(EventAck{Seq: 5, Status: AckShed}.Encode())
	f.Add(Bye{Seq: 77}.Encode())
	f.Add(Heartbeat{Seq: 11, Epoch: 2}.Encode())
	f.Add(DeviceSummary{Seq: 77, Wakes: 10, ShedMJ: 0.5, Energy: []ComponentMJ{
		{Component: telemetry.PhoneAwake, MJ: 1},
		{Component: telemetry.HubDevice, MJ: 2},
	}}.Encode())

	f.Fuzz(func(t *testing.T, p []byte) {
		roundTrip(t, "hello", p, DecodeHello, Hello.Encode)
		roundTrip(t, "hello-ack", p, DecodeHelloAck, HelloAck.Encode)
		roundTrip(t, "resume", p, DecodeResume, Resume.Encode)
		roundTrip(t, "resume-ack", p, DecodeResumeAck, ResumeAck.Encode)
		roundTrip(t, "wake", p, DecodeWakeEvent, WakeEvent.Encode)
		roundTrip(t, "energy", p, DecodeEnergyEvent, EnergyEvent.Encode)
		roundTrip(t, "ack", p, DecodeEventAck, EventAck.Encode)
		roundTrip(t, "bye", p, DecodeBye, Bye.Encode)
		roundTrip(t, "bye-ack", p, DecodeDeviceSummary, DeviceSummary.Encode)
		roundTrip(t, "heartbeat", p, DecodeHeartbeat, Heartbeat.Encode)
	})
}

// roundTrip checks one codec on payload p (see FuzzDecodePayloads).
func roundTrip[T any](t *testing.T, name string, p []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	v, err := decode(p)
	if err != nil {
		return
	}
	enc := encode(v)
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("%s: re-encoded payload % x rejected: %v", name, enc, err)
	}
	if !bytes.Equal(encode(again), enc) {
		t.Fatalf("%s: Decode(Encode(Decode(p))) = %+v, want %+v", name, again, v)
	}
	if !bytes.Equal(enc, p) {
		t.Fatalf("%s: Encode(Decode(% x)) = % x", name, p, enc)
	}
}
