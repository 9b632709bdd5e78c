package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Component identifies who spent simulated energy. The phone's four power
// states are separate components so the ledger reproduces the paper's
// Table 1 accounting exactly: the sum of the four phone components equals
// the phone state machine's total energy, and the grand total equals the
// run's aggregate energy.
type Component int

const (
	// PhoneAsleep..PhoneFallingAsleep attribute the main processor's
	// dwell-time energy per power state (paper Table 1).
	PhoneAsleep Component = iota
	PhoneWaking
	PhoneAwake
	PhoneFallingAsleep
	// HubDevice is the sensor-hub microcontroller's constant active draw.
	HubDevice
	// LinkWire is first-transmission wire occupancy of the serial link.
	LinkWire
	// LinkRetransmit is the ARQ overhead: retransmitted frames plus all
	// acknowledgement traffic.
	LinkRetransmit
	// PhoneFallback is the extra main-processor draw of phone-side
	// fallback sensing: while the supervisor believes the hub is down,
	// and for conditions the admission controller degraded off an
	// overloaded hub (steady-state overflow, not an outage).
	PhoneFallback
	// AdaptSavings is the hub energy the adaptive policy engine saved
	// versus the static configuration: the counterfactual static draw
	// minus the adapted draw over the same interval. HubDevice plus
	// AdaptSavings equals the static hub bill exactly, so adaptive runs
	// stay conserving against the static baseline.
	AdaptSavings
	numComponents int = iota
)

// String returns the component's report name.
func (c Component) String() string {
	switch c {
	case PhoneAsleep:
		return "phone.asleep"
	case PhoneWaking:
		return "phone.waking-up"
	case PhoneAwake:
		return "phone.awake"
	case PhoneFallingAsleep:
		return "phone.falling-asleep"
	case HubDevice:
		return "hub.device"
	case LinkWire:
		return "link.wire"
	case LinkRetransmit:
		return "link.retransmit"
	case PhoneFallback:
		return "phone.fallback"
	case AdaptSavings:
		return "adapt.savings"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// Components lists every component in declaration order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Ledger attributes simulated millijoules to components and hub cycles to
// pipeline stages. It is mutex-protected, so goroutines may share one;
// the parallel evaluation pool still gives each cell its own (Set.Cell),
// because float sums depend on the order of their terms. Per-run
// simulation code typically deposits once at the end of the run, so the
// lock is never hot.
type Ledger struct {
	mu     sync.Mutex
	mj     [numComponents]float64
	cycles map[string]float64 // pipeline stage kind -> hub cycles
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{cycles: make(map[string]float64)}
}

// AddEnergyMJ attributes mj millijoules to a component. No-op on nil.
func (l *Ledger) AddEnergyMJ(c Component, mj float64) {
	if l == nil || c < 0 || int(c) >= numComponents {
		return
	}
	l.mu.Lock()
	l.mj[c] += mj
	l.mu.Unlock()
}

// AddStageCycles attributes hub cycles to a pipeline stage kind. No-op on
// nil.
func (l *Ledger) AddStageCycles(kind string, cycles float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.cycles[kind] += cycles
	l.mu.Unlock()
}

// Merge adds every component and stage of o into l. No-op when either
// side is nil.
func (l *Ledger) Merge(o *Ledger) {
	if l == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for c, v := range o.mj {
		l.mj[c] += v
	}
	for k, v := range o.cycles {
		l.cycles[k] += v
	}
}

// EnergyMJ returns the energy attributed to one component (0 on nil).
func (l *Ledger) EnergyMJ(c Component) float64 {
	if l == nil || c < 0 || int(c) >= numComponents {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mj[c]
}

// TotalMJ returns the energy attributed across all components (0 on nil).
func (l *Ledger) TotalMJ() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	for _, v := range l.mj {
		sum += v
	}
	return sum
}

// StageCycles returns the cycles attributed to one stage kind (0 on nil).
func (l *Ledger) StageCycles(kind string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cycles[kind]
}

// TotalCycles returns the cycles attributed across all stages (0 on nil).
func (l *Ledger) TotalCycles() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	for _, v := range l.cycles {
		sum += v
	}
	return sum
}

// LedgerSnapshot is the ledger's exported state.
type LedgerSnapshot struct {
	EnergyMJ    map[string]float64 `json:"energy_mj"`
	TotalMJ     float64            `json:"total_mj"`
	StageCycles map[string]float64 `json:"stage_cycles"`
	TotalCycles float64            `json:"total_cycles"`
}

// Snapshot exports the ledger (zero components omitted).
func (l *Ledger) Snapshot() LedgerSnapshot {
	snap := LedgerSnapshot{
		EnergyMJ:    make(map[string]float64),
		StageCycles: make(map[string]float64),
	}
	if l == nil {
		return snap
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for c, v := range l.mj {
		if v != 0 {
			snap.EnergyMJ[Component(c).String()] = v
			snap.TotalMJ += v
		}
	}
	for k, v := range l.cycles {
		snap.StageCycles[k] = v
		snap.TotalCycles += v
	}
	return snap
}

// WriteText renders the ledger as aligned text: energy by component, then
// cycles by stage, both name-sorted with totals.
func (l *Ledger) WriteText(w io.Writer) error {
	snap := l.Snapshot()
	var b strings.Builder
	b.WriteString("energy (mJ):\n")
	for _, name := range sortedKeys(snap.EnergyMJ) {
		fmt.Fprintf(&b, "  %-24s %.6f\n", name, snap.EnergyMJ[name])
	}
	fmt.Fprintf(&b, "  %-24s %.6f\n", "total", snap.TotalMJ)
	b.WriteString("hub cycles by stage:\n")
	for _, name := range sortedKeys(snap.StageCycles) {
		fmt.Fprintf(&b, "  %-24s %.0f\n", name, snap.StageCycles[name])
	}
	fmt.Fprintf(&b, "  %-24s %.0f\n", "total", snap.TotalCycles)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the ledger snapshot as JSON.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Snapshot())
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
