package fleetd

import (
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

func TestDrainerNilSafe(t *testing.T) {
	var d *Drainer
	d.Request()
	d.Stop()
	if d.Requested() {
		t.Fatal("nil drainer must never report requested")
	}
	select {
	case <-d.C():
		t.Fatal("nil drainer channel must never close")
	default:
	}
}

func TestDrainerRequestIdempotent(t *testing.T) {
	d := WatchSignals(syscall.SIGUSR1)
	defer d.Stop()
	if d.Requested() {
		t.Fatal("fresh drainer should not be requested")
	}
	d.Request()
	d.Request() // second request must not panic (double close)
	if !d.Requested() {
		t.Fatal("drainer should be requested")
	}
	select {
	case <-d.C():
	default:
		t.Fatal("drain channel should be closed")
	}
}

func TestDrainerSignal(t *testing.T) {
	hard := make(chan int, 1)
	d := watchSignalsWithExit(func(code int) { hard <- code }, syscall.SIGUSR1)
	defer d.Stop()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case <-d.C():
	case <-time.After(5 * time.Second):
		t.Fatal("first signal did not trigger the drain")
	}

	// The second signal is the operator losing patience: hard exit.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-hard:
		if code != 1 {
			t.Fatalf("hard exit code = %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not hard-exit")
	}
}

// TestDrainerRequestThenSignalsHardExit covers the mixed path: the
// drain starts programmatically (internal fatal condition), then the
// operator signals twice — the second signal must still hard-exit even
// though the drain was already underway.
func TestDrainerRequestThenSignalsHardExit(t *testing.T) {
	hard := make(chan int, 1)
	d := watchSignalsWithExit(func(code int) { hard <- code }, syscall.SIGUSR1)
	defer d.Stop()

	d.Request() // drain already in progress before any signal
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-hard:
		t.Fatalf("first signal after Request must not hard-exit (code %d)", code)
	case <-time.After(100 * time.Millisecond):
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-hard:
		if code != 1 {
			t.Fatalf("hard exit code = %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not hard-exit")
	}
}

func TestDrainerStopDetaches(t *testing.T) {
	// The witness keeps SIGUSR2 caught after the drainer lets go of it and
	// shows when the signal has been delivered.
	witness := make(chan os.Signal, 1)
	signal.Notify(witness, syscall.SIGUSR2)
	defer signal.Stop(witness)

	d := WatchSignals(syscall.SIGUSR2)
	d.Stop()
	d.Stop() // idempotent
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR2); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case <-witness:
	case <-time.After(5 * time.Second):
		t.Fatal("the witness never received SIGUSR2")
	}
	if d.Requested() {
		t.Fatal("stopped drainer must ignore signals")
	}
}
