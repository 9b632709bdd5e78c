package main

import (
	"runtime"
	"testing"
	"time"
)

// A lap reports the highest rise since sampling began or since the
// previous lap, and the next lap starts from the heap as it stands then:
// a buffer freed during a lap still counts in that lap, not in the next.
func TestHeapSamplerLaps(t *testing.T) {
	runtime.GC()
	h := startHeapSampler(time.Millisecond)
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = 1
	}
	time.Sleep(10 * time.Millisecond)
	first := h.lapMB()
	runtime.KeepAlive(buf)
	buf = nil
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	second := h.lapMB()
	time.Sleep(10 * time.Millisecond)
	third := h.stopMB()
	if first < 16 || second < 16 {
		t.Errorf("laps with the buffer rose %.1f and %.1f MB, want at least 16", first, second)
	}
	if third >= 16 {
		t.Errorf("the lap after the buffer was freed rose %.1f MB, want less than 16", third)
	}
}
