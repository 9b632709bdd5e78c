package main

import (
	"testing"
	"time"

	"sidewinder/internal/fleetd"
	"sidewinder/internal/link"
	"sidewinder/internal/sim"
)

// fakePacer is a clock that only moves when the generator sleeps or when
// a send stalls.
type fakePacer struct{ t time.Duration }

func (p *fakePacer) now() time.Duration { return p.t }
func (p *fakePacer) sleepUntil(d time.Duration) {
	if d > p.t {
		p.t = d
	}
}

// One frame is due every millisecond. Sending frame 3 stalls the
// generator for 10 ms, as a bye round trip does. Acks arrive the instant
// a frame is sent, so every latency below is pure generator delay.
func TestPaceChargesStallFromDueTime(t *testing.T) {
	const n = 20
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	p := &fakePacer{}
	sentAt := make([]time.Duration, n)
	var batches [][2]int
	late, err := pace(p, due, func(lo, hi int) error {
		batches = append(batches, [2]int{lo, hi})
		for k := lo; k < hi; k++ {
			sentAt[k] = p.t
		}
		if lo <= 3 && 3 < hi {
			p.t += 10 * time.Millisecond
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		lat := sentAt[k] - due[k] // ack latency, measured from the due time
		want := time.Duration(0)
		if k >= 4 && k <= 13 {
			// Frames that fell due during the stall all go out at 13 ms
			// and are charged from their own due time.
			want = 13*time.Millisecond - due[k]
		}
		if lat != want {
			t.Errorf("frame %d: latency %v, want %v", k, lat, want)
		}
	}
	// Everything that was due went out in one batch after the stall.
	found := false
	for i, b := range batches {
		if b == [2]int{4, 14} {
			found = true
			// Lateness is reported per batch, from its first frame.
			if late[i] != 9*time.Millisecond {
				t.Errorf("lateness of the post-stall batch = %v, want 9ms", late[i])
			}
		} else if late[i] != 0 {
			t.Errorf("batch %v: lateness %v, want 0", b, late[i])
		}
	}
	if !found {
		t.Errorf("frames due during the stall were not sent as one batch: %v", batches)
	}
}

// testCells is a small population with the shapes the generator must
// handle: no wakes, fewer wakes than a heartbeat period, and several
// heartbeat periods.
func testCells() []sim.FleetCell {
	cells := make([]sim.FleetCell, 7)
	for i := range cells {
		c := &cells[i]
		c.Wakes = []int{0, 3, 25, 26, 120, 1, 7}[i]
		c.AvgMW = float64(i) + 0.5
		c.PhoneStateMJ = [4]float64{1.25 * float64(i), 2, 3, 4}
		c.FallbackEnergyMJ, c.HubEnergyMJ = 5, 6.5
	}
	return cells
}

func TestSessionEncodesCellAndContinuesSequence(t *testing.T) {
	cells := testCells()
	dev := &ingestDevice{id: 9, cell: &cells[4]}
	var s ingestSession
	for round := 0; round < 2; round++ {
		first := dev.genSeq + 1
		s.encode(dev)
		if s.frames() != cellFrames(dev.cell) {
			t.Fatalf("session has %d frames, cellFrames says %d", s.frames(), cellFrames(dev.cell))
		}
		if s.firstSeq != first || s.byeSeq != first+uint32(len(s.evs)) {
			t.Errorf("round %d: seqs %d..%d, want %d..%d", round, s.firstSeq, s.byeSeq, first, first+uint32(len(s.evs)))
		}
		var dec link.Decoder
		frames, err := dec.Feed(s.wire)
		if err != nil || len(frames) != s.frames() {
			t.Fatalf("decoded %d frames (%v), want %d", len(frames), err, s.frames())
		}
		r, err := fleetd.DecodeResume(frames[0].Payload)
		if err != nil || r.LastAcked != first-1 || r.DeviceID != 9 {
			t.Errorf("resume %+v (%v), want device 9 last acked %d", r, err, first-1)
		}
		wakes, hbs := 0, 0
		var mj float64
		for _, e := range s.evs {
			switch e.kind {
			case evWake:
				wakes++
			case evHeartbeat:
				hbs++
			case evEnergy:
				mj += e.mj
			}
		}
		c := dev.cell
		want := c.PhoneStateMJ[0] + c.PhoneStateMJ[1] + c.PhoneStateMJ[2] + c.PhoneStateMJ[3] +
			c.FallbackEnergyMJ + c.HubEnergyMJ
		if wakes != 120 || hbs != 5 || mj != want {
			t.Errorf("session carries %d wakes, %d heartbeats, %v mJ; want 120, 5, %v", wakes, hbs, mj, want)
		}
	}
}

func TestPlanBalancesConnectionsAndOrderCoversPasses(t *testing.T) {
	cells := testCells()
	p := newIngestPlan(3, cells, 2)
	heaviest := 0
	for i := range cells {
		heaviest = max(heaviest, cellFrames(&cells[i]))
	}
	if d := p.passFrames(0) - p.passFrames(1); d > heaviest || -d > heaviest {
		t.Errorf("connections send %d and %d frames per pass", p.passFrames(0), p.passFrames(1))
	}
	if n := len(p.devices[0]) + len(p.devices[1]); n != len(cells) {
		t.Fatalf("%d devices for %d cells", n, len(cells))
	}
	// Every pass visits each device once; startPass drops the rest of a
	// pass.
	o := newSessionOrder(3, 0, p.devices[0])
	o.nextDevice()
	o.startPass()
	for pass := 0; pass < 3; pass++ {
		seen := map[*ingestDevice]int{}
		for range p.devices[0] {
			seen[o.nextDevice()]++
		}
		for _, d := range p.devices[0] {
			if seen[d] != 1 {
				t.Errorf("pass %d visited device %d %d times", pass, d.id, seen[d])
			}
		}
	}
	a, b := newSessionOrder(3, 0, p.devices[0]), newSessionOrder(3, 0, p.devices[0])
	for i := 0; i < 20; i++ {
		if a.nextDevice() != b.nextDevice() {
			t.Fatal("the same seed gave different session orders")
		}
	}
}

func TestCellCheckpointMatchesOneReplay(t *testing.T) {
	cells := testCells()
	cp := cellCheckpoint(cells)
	for i, d := range cp.Devices {
		var s ingestSession
		s.encode(&ingestDevice{id: d.ID, cell: &cells[i]})
		hbs := 0
		for _, e := range s.evs {
			if e.kind == evHeartbeat {
				hbs++
			}
		}
		if d.Wakes != uint64(cells[i].Wakes) || d.Heartbeats != uint64(hbs) || d.LastSeq != s.byeSeq {
			t.Errorf("device %d: checkpoint %d wakes %d heartbeats last seq %d; session %d, %d, %d",
				d.ID, d.Wakes, d.Heartbeats, d.LastSeq, cells[i].Wakes, hbs, s.byeSeq)
		}
	}
}
