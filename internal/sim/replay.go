package sim

import (
	"fmt"

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
// fast path with; the phone state machine replays each chunk per sample
// over the fired bitmap, so the choice only affects speed.
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
	ph        *power.Phone
	preBuffer int
	hold      int
	lastFire  int
	openStart int
	intervals []Interval
}

func newWakeWindow(ph *power.Phone, preBuffer, hold int) *wakeWindow {
	return &wakeWindow{ph: ph, preBuffer: preBuffer, hold: hold, lastFire: -1, openStart: -1}
}

// fire records a firing at sample i and reports whether it woke the phone.
func (w *wakeWindow) fire(i int) bool {
	w.lastFire = i
	if s := w.ph.State(); s != power.Asleep && s != power.FallingAsleep {
		return false
	}
	w.ph.RequestWake()
	w.openStart = max(i-w.preBuffer, 0)
	return true
}

// idle puts an awake phone back to sleep at sample i once the hold has
// passed since the last firing, closing the open interval.
func (w *wakeWindow) idle(i int) {
	if w.ph.State() == power.Awake && w.lastFire >= 0 && i-w.lastFire > w.hold {
		w.ph.RequestSleep()
		w.intervals = append(w.intervals, Interval{w.openStart, i})
		w.openStart = -1
	}
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
