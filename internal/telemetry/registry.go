package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Registration (Counter, Gauge, Histogram)
// takes a lock and interns the handle; the returned handles themselves are
// lock-free — counters and gauges are single atomic words, histograms an
// atomic word per bucket — so instrumented hot paths never contend and
// never allocate. Registering the same name twice returns the same handle,
// which is how two endpoints of one link share a counter.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order, for stable zero-diff exports
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the handle for a monotonically increasing count,
// creating it on first use. Nil-safe: a nil registry returns a nil handle,
// whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the handle for a point-in-time value, creating it on first
// use. Nil-safe like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the handle for a fixed-bucket distribution, creating
// it on first use with the given upper bounds (ascending; an implicit
// +Inf bucket is appended). Re-registering an existing name returns the
// existing handle and ignores the bounds. Nil-safe like Counter.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Merge adds o's counters into r, interning the names r lacks in o's
// registration order, so merging the registries of a fan-out's cells in
// cell order exports what a serial run would. Gauges and histograms are
// not merged: no pool cell records them. No-op when either side is nil.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, name := range o.order {
		if c := o.counts[name]; c != nil {
			r.Counter(name).Add(c.Value())
		}
	}
}

// Counter is a monotonically increasing count. The zero value of the
// pointer (nil) is a disabled counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float value. Nil is disabled.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: Observe finds the first bound
// >= v (binary search over a small immutable slice, no allocation) and
// increments that bucket's atomic count. Nil is disabled.
type Histogram struct {
	name   string
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    Gauge          // running sum of observations
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile returns a bucket-interpolated estimate of the q-quantile of
// the observed distribution (q clamped to [0,1]; 0 on a nil or empty
// histogram). Within the bucket holding the target rank the estimate
// interpolates linearly between the bucket's edges; the first bucket's
// lower edge is taken as 0 unless its upper bound is non-positive, and a
// rank landing in the +Inf overflow bucket saturates at the largest
// finite bound. Accuracy is therefore one bucket width — good enough for
// the tail-latency reporting the fleet daemon and load generator do
// without a streaming-quantile dependency.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// One consistent pass over the atomic bucket counts: concurrent
	// Observe calls may land between loads, shifting the estimate by at
	// most those late samples — fine for a monitoring read.
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			if i == len(h.bounds) {
				// Overflow bucket: no finite upper edge to interpolate
				// toward. Saturate at the largest finite bound (0 when
				// the histogram has no finite buckets at all).
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			upper := h.bounds[i]
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			} else if upper <= 0 {
				return upper
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	// Unreachable: the loop always terminates inside a bucket because
	// target <= total. Kept for the compiler.
	return 0
}

// HistogramBucket is one exported bucket: the count of observations at or
// below UpperBound (IsInf for the overflow bucket).
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the upper bound as a string so the +Inf overflow
// bucket survives encoding/json, which rejects infinite floats.
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		UpperBound string `json:"le"`
		Count      int64  `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON, so exported snapshots
// round-trip through encoding/json.
func (b *HistogramBucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound string `json:"le"`
		Count      int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	v, err := strconv.ParseFloat(raw.UpperBound, 64)
	if err != nil {
		return err
	}
	b.UpperBound = v
	return nil
}

// MetricSnapshot is one metric's exported state.
type MetricSnapshot struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"` // "counter" | "gauge" | "histogram"
	Value   float64           `json:"value,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Count   int64             `json:"count,omitempty"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns every metric in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.order))
	for _, name := range r.order {
		switch {
		case r.counts[name] != nil:
			out = append(out, MetricSnapshot{
				Name: name, Kind: "counter", Value: float64(r.counts[name].Value()),
			})
		case r.gauges[name] != nil:
			out = append(out, MetricSnapshot{
				Name: name, Kind: "gauge", Value: r.gauges[name].Value(),
			})
		case r.hists[name] != nil:
			h := r.hists[name]
			s := MetricSnapshot{Name: name, Kind: "histogram", Sum: h.Sum(), Count: h.Count()}
			for i := range h.counts {
				b := HistogramBucket{UpperBound: math.Inf(1), Count: h.counts[i].Load()}
				if i < len(h.bounds) {
					b.UpperBound = h.bounds[i]
				}
				s.Buckets = append(s.Buckets, b)
			}
			out = append(out, s)
		}
	}
	return out
}

// WriteText renders the registry as aligned name-sorted text.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name })
	var b strings.Builder
	for _, m := range snap {
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-40s histogram count=%d sum=%g\n", m.Name, m.Count, m.Sum)
			for _, bk := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(bk.UpperBound, 1) {
					le = fmt.Sprintf("%g", bk.UpperBound)
				}
				fmt.Fprintf(&b, "%-40s   le=%-10s %d\n", m.Name, le, bk.Count)
			}
		default:
			fmt.Fprintf(&b, "%-40s %s %g\n", m.Name, m.Kind, m.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the registry snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []MetricSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
