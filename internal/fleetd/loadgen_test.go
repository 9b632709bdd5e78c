package fleetd

import (
	"math"
	"reflect"
	"testing"

	"sidewinder/internal/telemetry"
)

// testSession builds a devSession over n wake frames with seqs 1..n.
func testSession(n int) *devSession {
	frames := make([]outFrame, n)
	for i := range frames {
		seq := uint32(i + 1)
		frames[i] = outFrame{kind: itemWake, seq: seq,
			wire: mustFrame(MsgDeviceWake, WakeEvent{Seq: seq, Node: uint16(i), Value: 1}.Encode())}
	}
	return &devSession{
		frames:         frames,
		resolved:       make([]bool, n),
		resolvedShed:   make([]bool, n),
		energyAccepted: make([]float64, len(telemetry.Components())),
	}
}

// TestShedFramesNotRetransmitted pins the reconnect contract for sheds: a
// frame resolved as AckShed is a settled transaction (fallback billed on
// both sides), so the next attempt's retransmission set must skip it —
// re-offering it could get it accepted this time and double-count the
// event. Resolved-accepted frames above the watermark, by contrast, MUST
// be re-offered (a checkpoint-restarted server may have lost them).
func TestShedFramesNotRetransmitted(t *testing.T) {
	st := testSession(4)
	st.resolve(0, AckAccepted) // seq 1
	st.resolve(1, AckShed)     // seq 2: hole in the server watermark
	st.resolve(2, AckAccepted) // seq 3: accepted above the hole
	// seq 4 unresolved: its ack died with the old connection.

	if st.shed != 1 || st.wakes != 2 {
		t.Fatalf("shed=%d wakes=%d, want 1/2", st.shed, st.wakes)
	}

	// Reconnect. The server's contiguous watermark stops below the shed
	// hole, so it hands back 1: everything above must be re-offered except
	// the shed frame.
	got := st.unsentAbove(1)
	if want := []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsentAbove(1) = %v, want %v (shed seq 2 must not ride again)", got, want)
	}

	// A duplicate ack for the re-offered accepted frame must not re-count.
	st.resolve(2, AckDup)
	if st.wakes != 2 || st.dup != 0 {
		t.Fatalf("re-resolving an already-resolved frame changed counters: wakes=%d dup=%d", st.wakes, st.dup)
	}

	// After a full server restart the watermark can roll back to zero;
	// the shed frame still stays off the wire.
	got = st.unsentAbove(0)
	if want := []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsentAbove(0) = %v, want %v", got, want)
	}
}

// TestShedAfterRollbackRevokesAcceptance pins the other half of that
// contract. A server restarted from an older checkpoint has lost frames
// the client already resolved as accepted; the client re-offers them, and
// if the restarted server sheds one, the client must count it as shed,
// not as the accepted event the server no longer holds. Otherwise the
// bye-ack shows the server short of events the client counted.
func TestShedAfterRollbackRevokesAcceptance(t *testing.T) {
	st := testSession(3)
	// Two energy deposits to one component after the wakes, so the
	// mirror holds a sum the revoke has to take apart.
	for _, mj := range []float64{0.1, 0.2} {
		seq := uint32(len(st.frames) + 1)
		st.frames = append(st.frames, outFrame{kind: itemEnergy, seq: seq,
			component: telemetry.HubDevice, mj: mj,
			wire: mustFrame(MsgDeviceEnergy, EnergyEvent{Seq: seq, Component: telemetry.HubDevice, MJ: mj}.Encode())})
		st.resolved = append(st.resolved, false)
		st.resolvedShed = append(st.resolvedShed, false)
	}
	for i := range st.frames {
		st.resolve(i, AckAccepted)
	}

	// Restart from a checkpoint at seq 0: everything is re-offered, and
	// the restarted server sheds wake seq 2 and deposit seq 4.
	if got, want := st.unsentAbove(0), []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsentAbove(0) = %v, want %v", got, want)
	}
	st.resolve(0, AckAccepted)
	st.resolve(1, AckShed)
	st.resolve(2, AckAccepted)
	st.resolve(3, AckShed)
	st.resolve(4, AckAccepted)

	if st.wakes != 2 || st.energy != 1 || st.shed != 2 {
		t.Fatalf("wakes=%d energy=%d shed=%d, want 2/1/2", st.wakes, st.energy, st.shed)
	}
	// The server's sum holds only the 0.2 deposit; 0.1+0.2-0.1 would not
	// have the same bits.
	if got := st.energyAccepted[telemetry.HubDevice]; math.Float64bits(got) != math.Float64bits(0.2) {
		t.Fatalf("energy mirror = %v, want exactly 0.2", got)
	}
	// A second shed of the same frame (the server may shed a retransmit
	// again) changes nothing, and the revoked frames stay off the wire.
	st.resolve(1, AckShed)
	if st.shed != 2 || st.wakes != 2 {
		t.Fatalf("repeat shed re-counted: shed=%d wakes=%d", st.shed, st.wakes)
	}
	if got, want := st.unsentAbove(0), []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsentAbove(0) after the sheds = %v, want %v", got, want)
	}
}
