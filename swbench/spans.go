package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Parent is the index of the enclosing span
// in the recorder, or -1 for a root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // offsets from the recorder's origin
}

// recorder keeps spans in memory for the length of a traced run; they are
// written out once, when the run ends. A nil *recorder records nothing, so
// untraced code paths can call it unconditionally.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns fn's error.
func (r *recorder) timed(name string, parent int, fn func(id int) error) error {
	id := r.begin(name, parent)
	defer r.end(id)
	return fn(id)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (parallel work) and may spill past their parent; only the union of the
// child intervals, clipped to the parent, is subtracted. Open spans (End
// < 0) have zero duration.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration = 0, -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf is the layer a span is charged to: the text before the first
// dot of its name ("sim.run.Sidewinder" → "sim").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer over every span.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[layerOf(s.Name)] += self[i]
	}
	return out
}
