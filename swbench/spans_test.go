package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "eval.all", Parent: -1, Start: ms(0), End: ms(100)}, // 0
		{Name: "eval.a", Parent: 0, Start: ms(10), End: ms(30)},    // 1: 20
		{Name: "eval.b", Parent: 0, Start: ms(25), End: ms(50)},    // 2: overlaps 1 by 5
		{Name: "sim.x", Parent: 2, Start: ms(30), End: ms(40)},     // 3: leaf
		{Name: "eval.c", Parent: 0, Start: ms(90), End: ms(120)},   // 4: spills past parent
		{Name: "open", Parent: -1, Start: ms(5), End: -1},          // 5: never closed
	}
	got := selfTimes(spans)
	want := []time.Duration{
		// children of 0 cover [10,50] ∪ [90,100] = 50 ms of its 100.
		ms(50),
		ms(20),
		ms(15), // 25 ms minus the 10 ms child
		ms(10),
		ms(30),
		0,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["eval"] != ms(50+20+15+30) || layers["sim"] != ms(10) {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1)
	r.end(id)
	if err := r.timed("y", id, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if r.snapshot() != nil {
		t.Error("nil recorder returned spans")
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1)
	_ = r.timed("child", root, func(int) error { return nil })
	r.end(root)
	sp := r.snapshot()
	if len(sp) != 2 || sp[1].Parent != 0 || sp[0].End < sp[1].End || sp[1].End < sp[1].Start {
		t.Errorf("spans = %+v", sp)
	}
}
