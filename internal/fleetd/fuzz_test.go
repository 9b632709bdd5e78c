package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
	f.Add(DeviceSummary{Seq: 1}.Encode()) // header only, empty energy list
	f.Add(Resume{Version: ProtocolVersion, DeviceID: 9}.Encode()[:resumeSize-1])

	f.Fuzz(func(t *testing.T, p []byte) {
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

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint chain loader
// as the newest file of a chain with no .bak. The loader must not panic,
// every rejection must wrap ErrCheckpointCorrupt, and an accepted
// checkpoint must be a fixed point: written back with WriteCheckpoint and
// loaded again, it is reflect.DeepEqual to the first load.
func FuzzLoadCheckpoint(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.checkpoint")
	if err := WriteCheckpoint(seed, testCheckpoint(3, 30)); err != nil {
		f.Fatal(err)
	}
	enveloped, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(testCheckpoint(5, 50))
	if err != nil {
		f.Fatal(err)
	}
	// An empty applied-above set spelled [] must load as the nil that
	// WriteCheckpoint writes back.
	body := []byte(`{"epoch":1,"devices":[{"id":1,"energy_mj":[],"applied_above":[]}]}`)
	crc, err := checkpointCRC(body)
	if err != nil {
		f.Fatal(err)
	}
	emptyAbove, err := json.Marshal(checkpointEnvelope{Format: checkpointFormat, CRC32: crc, Data: body})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enveloped)
	f.Add(legacy)                       // bare JSON without the envelope
	f.Add(enveloped[:len(enveloped)/2]) // torn write
	f.Add(body)
	f.Add(emptyAbove)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fleet.checkpoint")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, info, err := LoadCheckpointDetail(path)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("rejection does not wrap ErrCheckpointCorrupt: %v", err)
			}
			return
		}
		if info.Source != path || info.FellBack {
			t.Fatalf("accepted from %+v, want the newest file", info)
		}
		again := filepath.Join(dir, "again.checkpoint")
		if err := WriteCheckpoint(again, cp); err != nil {
			t.Fatalf("accepted checkpoint does not write back: %v", err)
		}
		reloaded, _, err := LoadCheckpointDetail(again)
		if err != nil {
			t.Fatalf("written-back checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(reloaded, cp) {
			t.Fatalf("checkpoint changed through write-back:\nfirst: %+v\nagain: %+v", cp, reloaded)
		}
	})
}
