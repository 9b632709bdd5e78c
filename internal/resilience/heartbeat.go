// Package resilience models sensor-hub failure and the phone-side
// supervision that recovers from it.
//
// The paper's energy argument rests on the hub staying alive while the
// phone sleeps: a crashed MSP430/LM4F120 silently loses every pushed
// wake-up condition, and with it every future wake event. Real
// co-processor deployments treat peripheral failure as a first-class
// condition; this package supplies the three pieces the repro needs:
//
//   - a deterministic, seedable crash injector (CrashProfile /
//     CrashInjector) that fires hard resets, transient hangs and brownout
//     reboots against the hub node, off by default;
//
//   - a heartbeat codec (Heartbeat): the liveness probe the manager
//     piggybacks on the existing MsgPing/MsgPong pair, carrying a probe
//     sequence number and the hub's boot epoch so even a hub that reboots
//     between two probes — and then answers cheerfully with empty state —
//     is caught;
//
//   - a supervisor state machine (Supervisor) that watches inbound
//     traffic, probes when the line goes quiet, declares the hub down
//     after a bounded miss budget, keeps probing with capped backoff, and
//     latches a re-provisioning request the manager consumes on
//     reconnect.
package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Heartbeat is the liveness probe payload carried in MsgPing and MsgPong
// frames. Seq matches a pong to the ping that solicited it; Epoch is the
// hub's boot counter, echoed in every pong, so a reboot that happened
// between probes is visible even though the hub answers pings again. A
// ping or pong whose payload is not a heartbeat is a dropped frame.
type Heartbeat struct {
	Seq   uint32
	Epoch uint32
}

// HeartbeatSize is the encoded size in bytes.
const HeartbeatSize = 8

// ErrBadHeartbeat reports a ping/pong payload that is not a well-formed
// heartbeat.
var ErrBadHeartbeat = errors.New("resilience: malformed heartbeat payload")

// Encode serializes the heartbeat as 8 little-endian bytes.
func (h Heartbeat) Encode() []byte {
	out := make([]byte, HeartbeatSize)
	binary.LittleEndian.PutUint32(out[0:4], h.Seq)
	binary.LittleEndian.PutUint32(out[4:8], h.Epoch)
	return out
}

// DecodeHeartbeat parses a heartbeat payload. Anything but exactly
// HeartbeatSize bytes is ErrBadHeartbeat.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) != HeartbeatSize {
		return Heartbeat{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadHeartbeat, len(p), HeartbeatSize)
	}
	return Heartbeat{
		Seq:   binary.LittleEndian.Uint32(p[0:4]),
		Epoch: binary.LittleEndian.Uint32(p[4:8]),
	}, nil
}
