// Package manager implements both software endpoints of the Sidewinder
// architecture (paper Fig. 1): the phone-side SidewinderSensorManager that
// applications use to push wake-up conditions and receive callbacks, and
// the hub-side node that parses the intermediate language, places
// conditions on a device, executes them over sensor data, and ships wake
// events plus buffered raw data back over the serial link.
//
// The two sides communicate exclusively through IR text and link frames —
// the same decoupling boundary the paper prescribes (§2.1.3, §3.3) — so
// either side could be replaced by a real implementation speaking the same
// protocol.
package manager

import (
	"encoding/binary"
	"fmt"
	"math"

	"sidewinder/internal/core"
)

// Payload codecs for the manager-hub protocol. All integers are little
// endian; samples travel as float32, matching the hub's native precision.

// configPushPayload is condID u16 | IR text.
func encodeConfigPush(id uint16, irText string) []byte {
	out := make([]byte, 2+len(irText))
	binary.LittleEndian.PutUint16(out, id)
	copy(out[2:], irText)
	return out
}

func decodeConfigPush(p []byte) (id uint16, irText string, err error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("manager: config push payload too short")
	}
	return binary.LittleEndian.Uint16(p), string(p[2:]), nil
}

// idWithText is the shared shape of ack (device name) and error (message).
func encodeIDText(id uint16, text string) []byte {
	out := make([]byte, 2+len(text))
	binary.LittleEndian.PutUint16(out, id)
	copy(out[2:], text)
	return out
}

func decodeIDText(p []byte) (id uint16, text string, err error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("manager: payload too short")
	}
	return binary.LittleEndian.Uint16(p), string(p[2:]), nil
}

func encodeRemove(id uint16) []byte {
	out := make([]byte, 2)
	binary.LittleEndian.PutUint16(out, id)
	return out
}

func decodeRemove(p []byte) (uint16, error) {
	if len(p) != 2 {
		return 0, fmt.Errorf("manager: remove payload must be 2 bytes")
	}
	return binary.LittleEndian.Uint16(p), nil
}

// wakePayload is condID u16 | value f64 | sampleIndex u64.
func encodeWake(id uint16, value float64, sampleIndex int64) []byte {
	out := make([]byte, 18)
	binary.LittleEndian.PutUint16(out, id)
	binary.LittleEndian.PutUint64(out[2:], math.Float64bits(value))
	binary.LittleEndian.PutUint64(out[10:], uint64(sampleIndex))
	return out
}

func decodeWake(p []byte) (id uint16, value float64, sampleIndex int64, err error) {
	if len(p) != 18 {
		return 0, 0, 0, fmt.Errorf("manager: wake payload must be 18 bytes, got %d", len(p))
	}
	id = binary.LittleEndian.Uint16(p)
	value = math.Float64frombits(binary.LittleEndian.Uint64(p[2:]))
	sampleIndex = int64(binary.LittleEndian.Uint64(p[10:]))
	return id, value, sampleIndex, nil
}

// dataPayload is condID u16 | chanLen u8 | chan | count u32 | f32 samples.
// The samples may come in several runs, which the payload concatenates.
func encodeData(id uint16, ch core.SensorChannel, runs ...[]float64) []byte {
	name := string(ch)
	count := 0
	for _, run := range runs {
		count += len(run)
	}
	out := make([]byte, 2+1+len(name)+4+4*count)
	binary.LittleEndian.PutUint16(out, id)
	out[2] = byte(len(name))
	copy(out[3:], name)
	off := 3 + len(name)
	binary.LittleEndian.PutUint32(out[off:], uint32(count))
	off += 4
	for _, run := range runs {
		for _, v := range run {
			binary.LittleEndian.PutUint32(out[off:], math.Float32bits(float32(v)))
			off += 4
		}
	}
	return out
}

func decodeData(p []byte) (id uint16, ch core.SensorChannel, samples []float64, err error) {
	if len(p) < 7 {
		return 0, "", nil, fmt.Errorf("manager: data payload too short")
	}
	id = binary.LittleEndian.Uint16(p)
	nameLen := int(p[2])
	if len(p) < 3+nameLen+4 {
		return 0, "", nil, fmt.Errorf("manager: data payload truncated name")
	}
	chParsed, err := core.ParseChannel(string(p[3 : 3+nameLen]))
	if err != nil {
		return 0, "", nil, err
	}
	off := 3 + nameLen
	count := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if len(p) != off+4*count {
		return 0, "", nil, fmt.Errorf("manager: data payload has %d bytes, want %d", len(p), off+4*count)
	}
	samples = make([]float64, count)
	for i := range samples {
		samples[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[off+4*i:])))
	}
	return id, chParsed, samples, nil
}
