package sim

import (
	"fmt"
	"math"

	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
)

// The trace-replay kernel every hub-driven strategy shares (paper §2-3):
// the hub runs the wake condition over every sample, a firing wakes the
// phone, which receives the pre-buffered raw data, and the phone sleeps
// again after an idle hold. traceChannels resolves the trace data a
// condition reads, hubFeed pushes it through the interpreter's block fast
// path, and wakeWindow runs the phone side of the mechanism.

// simBlock is the chunk size the simulator feeds the interpreter's block
// fast path with; the wake window replays each chunk's fired bitmap
// exactly as a per-sample feed would, so the choice only affects speed.
const simBlock = 1024

// traceChannels returns the trace's samples for each channel in chs, in
// order. by names what needs them, for the error.
func traceChannels(tr *sensor.Trace, chs []core.SensorChannel, by string) ([][]float64, error) {
	out := make([][]float64, len(chs))
	for i, ch := range chs {
		samples, ok := tr.Channels[ch]
		if !ok {
			return nil, fmt.Errorf("sim: trace %q lacks channel %s required by %s", tr.Name, ch, by)
		}
		out[i] = samples
	}
	return out, nil
}

// blockMachine is the block fast path *interp.Machine and *interp.Merged
// share.
type blockMachine interface {
	PushBlock(ch core.SensorChannel, samples []float64) []interp.BlockWake
}

// hubFeed binds a hub interpreter to the trace channels it reads.
type hubFeed struct {
	m        blockMachine
	names    []core.SensorChannel
	channels [][]float64
}

func newHubFeed(m blockMachine, tr *sensor.Trace, chs []core.SensorChannel, by string) (*hubFeed, error) {
	channels, err := traceChannels(tr, chs, by)
	if err != nil {
		return nil, err
	}
	return &hubFeed{m: m, names: chs, channels: channels}, nil
}

// fire pushes samples [base, base+len(fired)) of every channel through the
// interpreter and marks fired[k] when the condition fired at sample
// base+k. The bitmap preserves the per-sample fired sequence exactly, so
// replaying it sample by sample is identical to a per-sample feed.
func (h *hubFeed) fire(fired []bool, base int) {
	clear(fired)
	end := base + len(fired)
	for ci, samples := range h.channels {
		for _, w := range h.m.PushBlock(h.names[ci], samples[base:end]) {
			fired[w.Off] = true
		}
	}
}

// wakeWindow drives the phone from hub firings: a firing wakes a sleeping
// phone and opens a delivery interval preBuffer samples back; once the
// phone is awake and hold samples pass without a firing, it sleeps again
// and the interval closes.
type wakeWindow struct {
	c         clock
	preBuffer int
	hold      int
	lastFire  int
	openStart int
	intervals []Interval
}

// newWakeWindow returns a window driving ph at rate samples per second.
// Its clock, w.c, steps once per replayed sample; it carries no trace
// length, which replay does not need.
func newWakeWindow(ph *power.Phone, rate float64, preBuffer, hold int) *wakeWindow {
	return &wakeWindow{c: clock{ph: ph, rate: rate}, preBuffer: preBuffer, hold: hold, lastFire: -1, openStart: -1}
}

// fire records a firing at sample i and reports whether it woke the phone.
func (w *wakeWindow) fire(i int) bool {
	w.lastFire = i
	if s := w.c.ph.State(); s != power.Asleep && s != power.FallingAsleep {
		return false
	}
	w.c.ph.RequestWake()
	w.openStart = max(i-w.preBuffer, 0)
	return true
}

// idle puts an awake phone back to sleep at sample i once the hold has
// passed since the last firing, closing the open interval.
func (w *wakeWindow) idle(i int) {
	if w.c.ph.State() == power.Awake && w.lastFire >= 0 && i-w.lastFire > w.hold {
		w.c.ph.RequestSleep()
		w.intervals = append(w.intervals, Interval{w.openStart, i})
		w.openStart = -1
	}
}

// replay drives the phone over fired, the hub's firing bitmap for samples
// [base, base+len(fired)), one clock step per sample. At each sample it
// handles, it calls visit with whether the hub fired there (visit must
// call w.fire(i) on a firing; a nil visit just fires), then idle, then
// steps the clock.
//
// Between handled samples it advances in one step over the samples in
// which nothing can act: no firing, idle a no-op (the phone Asleep, or
// Awake within the hold since the last firing), and before until() when
// until is non-nil (the first sample at which the caller's visit acts
// without a firing). Transitions are stepped one sample at a time, so the
// outcome is bit-identical to handling every sample.
func (w *wakeWindow) replay(fired []bool, base int, visit func(i int, hit bool), until func() int) {
	dt := 1 / w.c.rate
	end := base + len(fired)
	for i := base; ; i++ {
		quiet := min(end, w.quietUntil(i))
		if until != nil {
			quiet = min(quiet, until())
		}
		j := i
		for j < quiet && !fired[j-base] {
			j++
		}
		if j > i {
			w.c.advanceSteps(dt, j-i)
			i = j
		}
		if i == end {
			return
		}
		if visit != nil {
			visit(i, fired[i-base])
		} else if fired[i-base] {
			w.fire(i)
		}
		w.idle(i)
		w.c.advance(dt)
	}
}

// quietUntil returns the first sample from i on at which idle may act: never
// for an asleep phone, one past the hold for an awake one, and i itself
// mid-transition, where the phone is stepped sample by sample.
func (w *wakeWindow) quietUntil(i int) int {
	switch w.c.ph.State() {
	case power.Asleep:
		return math.MaxInt
	case power.Awake:
		if w.lastFire < 0 {
			return math.MaxInt
		}
		return w.lastFire + w.hold + 1
	}
	return i
}

// open reports whether a delivery interval is open; after close it still
// reports the state the trace ended in.
func (w *wakeWindow) open() bool { return w.openStart >= 0 }

// close ends the replay at trace length n and returns the delivered
// intervals, the one still open running to n.
func (w *wakeWindow) close(n int) []Interval {
	if w.open() {
		w.intervals = append(w.intervals, Interval{w.openStart, n})
	}
	return w.intervals
}
