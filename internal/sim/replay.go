package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sidewinder/internal/core"
	"sidewinder/internal/interp"
	"sidewinder/internal/power"
	"sidewinder/internal/sensor"
)

// The trace-replay kernel every hub-driven strategy shares (paper §2-3):
// the hub runs the wake condition over every sample, a firing wakes the
// phone, which receives the pre-buffered raw data, and the phone sleeps
// again after an idle hold. traceChannels resolves the trace data a
// condition reads, a hub pass pushes a chunk of it through the
// interpreter's Run and lists where the condition fired, and wakeWindow
// runs the phone side of the mechanism over that list.

// simBlock is the chunk size the simulator feeds the interpreter's block
// fast path with; the wake window replays each chunk's fire list exactly as
// a per-sample feed would, so the choice only affects speed.
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

// fireList is a hub pass's result: the samples where the condition fired.
// add is the wake callback of the interpreter's Run, so a hub pass is a Run
// call into a fireList; set then sorts the list and drops duplicates, since
// Run pushes channels one after another and several plans of a merged hub
// may fire at one sample.
type fireList []int

func (f *fireList) add(at int, _ interp.TaggedWake) { *f = append(*f, at) }

func (f fireList) set() fireList {
	slices.Sort(f)
	return slices.Compact(f)
}

// replayHub is the chunked hub→phone loop: for each simBlock chunk
// [base, end) of the trace's n samples, pass appends the chunk's firings,
// sorted and duplicate-free, to the fire list it is given, and w replays
// them, handing each sample it handles to visit and honouring until as
// wakeWindow.replay does. The list holds one chunk and is reused across
// chunks, and across runs through fireLists.
func replayHub(w *wakeWindow, n int, pass func(f fireList, base, end int) fireList, visit func(i int, hit bool), until func() int) {
	fp := fireLists.Get().(*fireList)
	f := *fp
	for base := 0; base < n; base += simBlock {
		end := min(base+simBlock, n)
		f = pass(f[:0], base, end)
		w.replay(f, base, end, visit, until)
	}
	*fp = f[:0]
	fireLists.Put(fp)
}

// fireLists holds replayHub's chunk lists between runs, which the
// simulation workers run concurrently. A pass only appends to the list it
// is given, so a returned list is replayHub's own to hand back.
var fireLists = sync.Pool{New: func() any {
	f := make(fireList, 0, simBlock)
	return &f
}}

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

// replay drives the phone over samples [base, end), one clock step per
// sample, given fires, the hub's sorted, duplicate-free fire list for them.
// At each sample it handles, it calls visit with whether the hub fired there
// (visit must call w.fire(i) on a firing; a nil visit just fires), then
// idle, then steps the clock.
//
// Between handled samples it advances in one step over the samples in
// which nothing can act: no firing, idle a no-op (the phone Asleep, or
// Awake within the hold since the last firing), and before until() when
// until is non-nil (the first sample at which the caller's visit acts
// without a firing). Transitions are stepped one sample at a time, so the
// outcome is bit-identical to handling every sample.
func (w *wakeWindow) replay(fires []int, base, end int, visit func(i int, hit bool), until func() int) {
	dt := 1 / w.c.rate
	for i := base; ; i++ {
		quiet := min(end, w.quietUntil(i))
		if until != nil {
			quiet = min(quiet, until())
		}
		if len(fires) > 0 {
			quiet = min(quiet, fires[0])
		}
		if quiet > i {
			w.c.advanceSteps(dt, quiet-i)
			i = quiet
		}
		if i == end {
			return
		}
		hit := len(fires) > 0 && fires[0] == i
		if hit {
			fires = fires[1:]
		}
		if visit != nil {
			visit(i, hit)
		} else if hit {
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
