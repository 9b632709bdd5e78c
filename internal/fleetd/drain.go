package fleetd

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Drainer turns process signals into a graceful-drain request any long
// replay or service loop can poll. First signal: the drain channel
// closes and Requested flips true — the owner finishes the unit of work
// in hand, flushes its telemetry and exits cleanly. Second signal: the
// operator has lost patience; the process hard-exits with status 1.
//
// sidewinderd drains its ingest queues behind it; hubemu uses the same
// helper so an interrupted replay flushes -metrics/-traceout instead of
// dying mid-frame.
type Drainer struct {
	once     sync.Once
	ch       chan struct{}
	sigc     chan os.Signal
	quit     chan struct{}
	done     chan struct{} // closed when the watcher goroutine returns
	stopOnce sync.Once
	hardExit func(int) // os.Exit, stubbed in tests
}

// WatchSignals installs a drainer on the given signals (default: SIGINT
// and SIGTERM).
func WatchSignals(sigs ...os.Signal) *Drainer {
	return watchSignalsWithExit(os.Exit, sigs...)
}

// watchSignalsWithExit is WatchSignals with the hard-exit hook injected —
// the hook must be in place before the watcher starts, so tests stub it
// here rather than poking the field afterwards.
func watchSignalsWithExit(exit func(int), sigs ...os.Signal) *Drainer {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	d := &Drainer{
		ch:       make(chan struct{}),
		sigc:     make(chan os.Signal, 2),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		hardExit: exit,
	}
	signal.Notify(d.sigc, sigs...)
	go d.watch()
	return d
}

func (d *Drainer) watch() {
	defer close(d.done)
	select {
	case <-d.sigc:
		d.Request()
	case <-d.quit:
		return
	}
	select {
	case <-d.sigc:
		d.hardExit(1)
	case <-d.quit:
	}
}

// Request triggers the drain without a signal (tests, or an internal
// fatal condition that wants the graceful path). Idempotent.
func (d *Drainer) Request() {
	if d == nil {
		return
	}
	d.once.Do(func() { close(d.ch) })
}

// C returns a channel closed on the first drain request. Nil-safe: a nil
// drainer returns a never-closed channel.
func (d *Drainer) C() <-chan struct{} {
	if d == nil {
		return make(chan struct{})
	}
	return d.ch
}

// Requested reports whether a drain has been requested. Nil-safe and
// cheap enough for per-sample replay loops (one select on a closed
// channel).
func (d *Drainer) Requested() bool {
	if d == nil {
		return false
	}
	select {
	case <-d.ch:
		return true
	default:
		return false
	}
}

// Stop detaches the signal handler and waits for the watcher goroutine to
// return. After Stop the drainer keeps its current state but no longer
// reacts to signals.
func (d *Drainer) Stop() {
	if d == nil {
		return
	}
	d.stopOnce.Do(func() {
		signal.Stop(d.sigc)
		close(d.quit)
	})
	<-d.done
}
