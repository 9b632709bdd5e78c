package main

import (
	"runtime/metrics"
	"time"
)

// heapSampler tracks how far the Go heap rises while it runs above where
// it stood when sampling began, by reading the heap-object bytes every
// period. Callers collect garbage first, so the starting point is the
// live heap: the inputs the measured phase works on do not count, what
// the phase allocates does. A long phase is split into laps, each with
// its own high-water mark, so that one collection's timing does not set
// the whole phase's figure. runtime/metrics reads do not stop the world,
// so sampling does not perturb what it measures beyond one short wakeup
// per period.
type heapSampler struct {
	stop chan struct{}
	lap  chan chan uint64
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), lap: make(chan chan uint64), done: make(chan uint64, 1)}
	sample := []metrics.Sample{{Name: heapMetric}}
	var peak, cur uint64
	read := func() {
		metrics.Read(sample)
		cur = sample[0].Value.Uint64()
		peak = max(peak, cur)
	}
	read() // before returning, so the base precedes the caller's work
	base := peak
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case reply := <-h.lap:
				read()
				reply <- peak - base
				peak = cur
			case <-h.stop:
				read()
				h.done <- peak - base
				return
			}
		}
	}()
	return h
}

// lapMB returns the highest rise in MB (10^6 bytes) since sampling began
// or since the previous lap, and starts a new lap from the current heap.
func (h *heapSampler) lapMB() float64 {
	reply := make(chan uint64)
	h.lap <- reply
	return float64(<-reply) / 1e6
}

// stopMB ends sampling and returns the rise in MB since the last lap (or
// since sampling began). It waits for the sampling goroutine to exit.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	return float64(<-h.done) / 1e6
}
