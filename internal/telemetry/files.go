package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// NewSet builds the sinks a command's output flags ask for: a registry
// and ledger when metricsFile is named, a tracer when traceFile is. With
// neither, the zero Set disables telemetry entirely.
func NewSet(metricsFile, traceFile string) Set {
	var set Set
	if metricsFile != "" {
		set.Metrics = NewRegistry()
		set.Ledger = NewLedger()
	}
	if traceFile != "" {
		set.Tracer = NewTracer()
	}
	return set
}

// WriteFiles exports the sinks to the named files; an empty name writes
// nothing. The metrics file carries both the registry and the ledger — as
// one JSON object when the name ends in .json, as aligned text otherwise.
// The trace file is always Chrome trace_event JSON.
func (s *Set) WriteFiles(metricsFile, traceFile string) error {
	if metricsFile != "" {
		f, err := os.Create(metricsFile)
		if err != nil {
			return err
		}
		if strings.HasSuffix(metricsFile, ".json") {
			_, err = io.WriteString(f, `{"metrics":`)
			if err == nil {
				err = s.Metrics.WriteJSON(f)
			}
			if err == nil {
				_, err = io.WriteString(f, `,"ledger":`)
			}
			if err == nil {
				err = s.Ledger.WriteJSON(f)
			}
			if err == nil {
				_, err = io.WriteString(f, "}\n")
			}
		} else {
			err = s.Metrics.WriteText(f)
			if err == nil {
				_, err = io.WriteString(f, "\n")
			}
			if err == nil {
				err = s.Ledger.WriteText(f)
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		err = s.Tracer.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}
