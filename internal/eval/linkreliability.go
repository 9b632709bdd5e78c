package eval

import (
	"fmt"

	"sidewinder/internal/apps"
	"sidewinder/internal/link"
	"sidewinder/internal/parallel"
	"sidewinder/internal/sim"
	"sidewinder/internal/telemetry"
)

// LinkReliabilityResult reports the lossy-link sweep: what an unprotected
// serial link loses at each error rate, and what the stop-and-wait ARQ
// layer pays to lose nothing.
type LinkReliabilityResult struct {
	Table *Table
	// Per error rate, delivery recall (delivered/hub wakes) without and
	// with the ARQ layer, ARQ retransmissions, and ARQ link power.
	RawRecall   map[float64]float64
	ARQRecall   map[float64]float64
	Retransmits map[float64]int
	LinkMW      map[float64]float64
}

// linkErrorRates are the swept per-frame fault intensities. 0 is the
// control: with faults disabled both modes reduce to the legacy perfect
// wire.
var linkErrorRates = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}

// linkFaultFor derives a full fault mix from one headline rate: drops at
// the rate itself, plus proportionally rarer truncations, bursts and
// delays, and a per-byte flip rate tuned so ~150-byte data frames are
// corrupted at about half the headline rate.
func linkFaultFor(rate float64, seed int64) link.FaultConfig {
	return link.FaultConfig{
		Seed:         seed,
		DropProb:     rate,
		BitFlipProb:  rate / 300,
		TruncateProb: rate / 4,
		BurstProb:    rate / 8,
		BurstLen:     6,
		DelayProb:    rate / 4,
		DelayTicks:   2,
	}
}

// LinkReliability sweeps the serial link's frame-error rate and measures
// delivered wake-up recall and energy overhead with and without the
// stop-and-wait ARQ layer (fault model of §3.4's audio-jack UART). The
// steps condition replays over one group-2 robot run; cells fan out
// across the worker pool and results are read back in sweep order, so the
// table is identical at any worker count.
func LinkReliability(w *Workload) (*LinkReliabilityResult, error) {
	tr := w.RobotGroup(2)[0]
	app := apps.Steps()

	type cell struct {
		rate float64
		arq  bool
	}
	cells := make([]cell, 0, 2*len(linkErrorRates))
	for _, r := range linkErrorRates {
		cells = append(cells, cell{r, false}, cell{r, true})
	}
	teles := make([]telemetry.Set, len(cells))
	outcomes, err := parallel.Map(w.Workers, len(cells), func(i int) (*sim.LossyLinkResult, error) {
		c := cells[i]
		teles[i] = w.Telemetry.Cell()
		cfg := sim.LossyLinkConfig{
			Fault:     linkFaultFor(c.rate, 0x51DE+int64(i)),
			Telemetry: teles[i],
		}
		if c.arq {
			cfg.ARQ = &link.ARQConfig{}
		}
		return sim.LossyLinkRun(tr, app, cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		w.Telemetry.Merge(fmt.Sprintf("link[rate=%.0f%%,arq=%t]/%s/", c.rate*100, c.arq, tr.Name), teles[i])
	}

	out := &LinkReliabilityResult{
		RawRecall:   make(map[float64]float64),
		ARQRecall:   make(map[float64]float64),
		Retransmits: make(map[float64]int),
		LinkMW:      make(map[float64]float64),
	}
	table := &Table{
		Title: "Link reliability (paper §3.4): lossy audio-jack UART vs stop-and-wait ARQ",
		Header: []string{"Frame error rate", "Raw delivery", "ARQ delivery",
			"ARQ retransmits", "ARQ dup drops", "ARQ overhead (B)", "ARQ link power (mW)"},
		Note: "Steps condition over one robot run. Raw = unprotected frames (lost wake-ups stay lost); " +
			"ARQ = bounded stop-and-wait retransmission. Link power prices wire occupancy at " +
			fmt.Sprintf("%.0f mW", link.UARTActiveMW) + " busy.",
	}
	for ri, r := range linkErrorRates {
		raw, arq := outcomes[2*ri], outcomes[2*ri+1]
		if arq.DuplicateWakes > 0 {
			return nil, fmt.Errorf("eval: ARQ delivered %d duplicate wakes at rate %g", arq.DuplicateWakes, r)
		}
		out.RawRecall[r] = raw.DeliveredRecall
		out.ARQRecall[r] = arq.DeliveredRecall
		retr := arq.Stats.PhoneARQ.Retransmits + arq.Stats.HubARQ.Retransmits
		out.Retransmits[r] = retr
		out.LinkMW[r] = arq.LinkAvgMW
		overhead := arq.Stats.PhoneARQ.OverheadBytes + arq.Stats.HubARQ.OverheadBytes
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f%%", r*100),
			fmt.Sprintf("%.0f%%", raw.DeliveredRecall*100),
			fmt.Sprintf("%.0f%%", arq.DeliveredRecall*100),
			fmt.Sprintf("%d", retr),
			fmt.Sprintf("%d", arq.Stats.PhoneARQ.DupsDropped+arq.Stats.HubARQ.DupsDropped),
			fmt.Sprintf("%d", overhead),
			fmt.Sprintf("%.3f", arq.LinkAvgMW),
		})
	}
	out.Table = table
	return out, nil
}
