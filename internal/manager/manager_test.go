package manager

import (
	"math"
	"strings"
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/hub"
)

func significantMotion() *core.Pipeline {
	p := core.NewPipeline("significantMotion")
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		p.AddBranch(core.NewBranch(ch).Add(core.MovingAverage(10)))
	}
	p.Add(core.VectorMagnitude())
	p.Add(core.MinThreshold(15))
	return p
}

func sirenPipeline() *core.Pipeline {
	p := core.NewPipeline("siren")
	p.AddBranch(core.NewBranch(core.Mic).
		Add(core.HighPass(750, 512)).
		Add(core.FFT()).
		Add(core.SpectralMag()).
		Add(core.Tonality(850, 1800, core.AudioRateHz)).
		Add(core.MinThreshold(4)))
	return p
}

func newBed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPushEndToEnd(t *testing.T) {
	tb := newBed(t)
	var events []Event
	id, device, err := tb.Push(significantMotion(), ListenerFunc(func(e Event) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if device != "MSP430" {
		t.Errorf("placed on %s, want MSP430", device)
	}
	if tb.Hub.Loaded() != 1 {
		t.Errorf("hub has %d conditions", tb.Hub.Loaded())
	}

	// Idle: gravity only.
	for i := 0; i < 60; i++ {
		tb.Feed(core.AccelX, 0)
		tb.Feed(core.AccelY, 0)
		tb.Feed(core.AccelZ, 9.81)
	}
	if len(events) != 0 {
		t.Fatalf("idle produced %d events", len(events))
	}

	// Violent motion.
	for i := 0; i < 60; i++ {
		tb.Feed(core.AccelX, 12)
		tb.Feed(core.AccelY, 12)
		tb.Feed(core.AccelZ, 12)
	}
	if len(events) == 0 {
		t.Fatal("motion produced no events")
	}
	ev := events[0]
	if ev.CondID != id {
		t.Errorf("event cond = %d, want %d", ev.CondID, id)
	}
	if ev.Value < 15 {
		t.Errorf("admitted value %g below threshold", ev.Value)
	}
	// Raw buffered data is delivered for every channel of the condition.
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		if len(ev.Data[ch]) == 0 {
			t.Errorf("no buffered data for %s", ch)
		}
	}
	// Buffered samples are the recent raw values (float32 precision).
	latest := ev.Data[core.AccelZ]
	if got := latest[len(latest)-1]; math.Abs(got-12) > 1e-3 && math.Abs(got-9.81) > 1e-3 {
		t.Errorf("buffer tail = %g, want a raw sample", got)
	}
}

func TestDeviceUpgradeWithSiren(t *testing.T) {
	tb := newBed(t)
	nop := ListenerFunc(func(Event) {})
	if _, device, err := tb.Push(significantMotion(), nop); err != nil || device != "MSP430" {
		t.Fatalf("first push: %s, %v", device, err)
	}
	// The siren condition needs the LM4F120; the whole loaded set moves.
	_, device, err := tb.Push(sirenPipeline(), nop)
	if err != nil {
		t.Fatal(err)
	}
	if device != "LM4F120" {
		t.Errorf("siren placed on %s, want LM4F120", device)
	}
	if dev, ok := tb.Hub.Device(); !ok || dev.Name != "LM4F120" {
		t.Errorf("hub device = %v, %v", dev, ok)
	}
}

func TestRemoveDowngradesDevice(t *testing.T) {
	tb := newBed(t)
	nop := ListenerFunc(func(Event) {})
	tb.Push(significantMotion(), nop)
	sid, _, err := tb.Push(sirenPipeline(), nop)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(sid); err != nil {
		t.Fatal(err)
	}
	if tb.Hub.Loaded() != 1 {
		t.Fatalf("hub has %d conditions after removal", tb.Hub.Loaded())
	}
	if dev, ok := tb.Hub.Device(); !ok || dev.Name != "MSP430" {
		t.Errorf("hub should downgrade to MSP430, got %v %v", dev, ok)
	}
}

func TestPushInvalidPipelineFailsLocally(t *testing.T) {
	tb := newBed(t)
	bad := core.NewPipeline("bad")
	bad.AddBranch(core.NewBranch(core.AccelX).Add(core.Stage{Kind: "nonsense"}))
	if _, err := tb.Manager.Push(bad, ListenerFunc(func(Event) {})); err == nil {
		t.Fatal("invalid pipeline must fail before reaching the hub")
	}
	if tb.Hub.Loaded() != 0 {
		t.Error("hub should have nothing loaded")
	}
}

func TestPushNeedsListener(t *testing.T) {
	tb := newBed(t)
	if _, err := tb.Manager.Push(significantMotion(), nil); err == nil {
		t.Fatal("nil listener must fail")
	}
}

func TestHubRejectsInfeasibleSet(t *testing.T) {
	// A hub with only the MSP430 cannot place the siren condition.
	tb, err := NewTestbed(TestbedConfig{Devices: []hub.Device{hub.MSP430()}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := tb.Manager.Push(sirenPipeline(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Hub.Service(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Manager.Service(); err != nil {
		t.Fatal(err)
	}
	_, ready, err := tb.Manager.Status(id)
	if !ready {
		t.Fatal("push not settled")
	}
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("expected hub rejection, got %v", err)
	}
	if tb.Hub.Loaded() != 0 {
		t.Error("rejected condition must not stay loaded")
	}
	// Feedback on a rejected condition is accepted and dropped: the hub
	// runs no program to tune, so no policy engine starts.
	if err := tb.Manager.Feedback(id, true); err != nil {
		t.Errorf("feedback on rejected condition: %v", err)
	}
	if tb.Manager.adaptive[id] != nil {
		t.Error("feedback on a rejected condition started a policy engine")
	}
}

func TestRemoveUnknownCondition(t *testing.T) {
	tb := newBed(t)
	if err := tb.Manager.Remove(42); err == nil {
		t.Fatal("removing unknown condition should fail")
	}
}

func TestStatusUnknown(t *testing.T) {
	tb := newBed(t)
	if _, _, err := tb.Manager.Status(9); err == nil {
		t.Fatal("unknown status should fail")
	}
}

func TestConcurrentConditionsBothFire(t *testing.T) {
	tb := newBed(t)
	var aFires, bFires int
	// Condition A: any strong x movement.
	pa := core.NewPipeline("a")
	pa.AddBranch(core.NewBranch(core.AccelX).Add(core.MovingAverage(2)).Add(core.MinThreshold(5)))
	// Condition B: strong negative y.
	pb := core.NewPipeline("b")
	pb.AddBranch(core.NewBranch(core.AccelY).Add(core.MovingAverage(2)).Add(core.MaxThreshold(-5)))
	if _, _, err := tb.Push(pa, ListenerFunc(func(Event) { aFires++ })); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Push(pb, ListenerFunc(func(Event) { bFires++ })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tb.Feed(core.AccelX, 8)
		tb.Feed(core.AccelY, 0)
	}
	if aFires == 0 || bFires != 0 {
		t.Fatalf("after x motion: a=%d b=%d", aFires, bFires)
	}
	for i := 0; i < 10; i++ {
		tb.Feed(core.AccelX, 0)
		tb.Feed(core.AccelY, -8)
	}
	if bFires == 0 {
		t.Fatalf("after y dip: b=%d", bFires)
	}
}

func TestHubWorkMeter(t *testing.T) {
	tb := newBed(t)
	tb.Push(significantMotion(), ListenerFunc(func(Event) {}))
	for i := 0; i < 20; i++ {
		tb.Feed(core.AccelX, 1)
	}
	w := tb.Hub.Work()
	if w.FloatOps <= 0 {
		t.Errorf("hub work = %+v", w)
	}
}

func TestPayloadCodecs(t *testing.T) {
	// Wake payload.
	p := encodeWake(7, 3.25, 99)
	id, v, idx, err := decodeWake(p)
	if err != nil || id != 7 || v != 3.25 || idx != 99 {
		t.Errorf("wake round trip: %d %g %d %v", id, v, idx, err)
	}
	if _, _, _, err := decodeWake(p[:5]); err == nil {
		t.Error("short wake payload should fail")
	}
	// Data payload.
	d := encodeData(3, core.Mic, []float64{1.5, -2.5})
	id, ch, samples, err := decodeData(d)
	if err != nil || id != 3 || ch != core.Mic || len(samples) != 2 || samples[1] != -2.5 {
		t.Errorf("data round trip: %d %s %v %v", id, ch, samples, err)
	}
	if _, _, _, err := decodeData(d[:4]); err == nil {
		t.Error("short data payload should fail")
	}
	if _, _, _, err := decodeData(d[:len(d)-1]); err == nil {
		t.Error("truncated samples should fail")
	}
	// Remove payload.
	if _, err := decodeRemove([]byte{1}); err == nil {
		t.Error("short remove should fail")
	}
	// Config push.
	if _, _, err := decodeConfigPush([]byte{0}); err == nil {
		t.Error("short config push should fail")
	}
}

func TestHubSharesCommonPrefixes(t *testing.T) {
	// Two conditions windowing MIC identically: the hub must share the
	// window stage (paper §7) and still dispatch both listeners.
	tb := newBed(t)
	makeCond := func(op string, min float64) *core.Pipeline {
		p := core.NewPipeline(op)
		p.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(4, 0, "rectangular")).
			Add(core.Stat(op)).
			Add(core.MinThreshold(min)))
		return p
	}
	var meanFires, rangeFires int
	if _, _, err := tb.Push(makeCond("mean", 1), ListenerFunc(func(Event) { meanFires++ })); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Push(makeCond("range", 2), ListenerFunc(func(Event) { rangeFires++ })); err != nil {
		t.Fatal(err)
	}
	if got := tb.Hub.SharedNodes(); got != 1 {
		t.Errorf("SharedNodes = %d, want 1 (the common window)", got)
	}
	// Window [3,3,3,3]: mean 3 (fires), range 0 (silent).
	for i := 0; i < 4; i++ {
		tb.Feed(core.Mic, 3)
	}
	if meanFires != 1 || rangeFires != 0 {
		t.Fatalf("after flat window: mean=%d range=%d", meanFires, rangeFires)
	}
	// Window [0,4,1,3]: mean 2 (fires), range 4 (fires).
	for _, v := range []float64{0, 4, 1, 3} {
		tb.Feed(core.Mic, v)
	}
	if meanFires != 2 || rangeFires != 1 {
		t.Fatalf("after varied window: mean=%d range=%d", meanFires, rangeFires)
	}
}

func TestMergedPlacementTighterThanSum(t *testing.T) {
	// Ten identical audio conditions would exceed the MSP430 as a sum but
	// share into a single pipeline's demand.
	tb, err := NewTestbed(TestbedConfig{Devices: []hub.Device{hub.MSP430()}})
	if err != nil {
		t.Fatal(err)
	}
	cond := func() *core.Pipeline {
		p := core.NewPipeline("heavy")
		p.AddBranch(core.NewBranch(core.Mic).
			Add(core.Window(1024, 0, "rectangular")).
			Add(core.Stat("variance")).
			Add(core.MinThreshold(0.01)))
		return p
	}
	nop := ListenerFunc(func(Event) {})
	for i := 0; i < 10; i++ {
		if _, _, err := tb.Push(cond(), nop); err != nil {
			t.Fatalf("push %d rejected despite full sharing: %v", i, err)
		}
	}
	if tb.Hub.Loaded() != 10 {
		t.Errorf("Loaded = %d", tb.Hub.Loaded())
	}
	if shared := tb.Hub.SharedNodes(); shared != 27 {
		t.Errorf("SharedNodes = %d, want 27 (9 duplicated three-node plans)", shared)
	}
}

func TestRejectedPushRestoresPreviousSet(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Devices: []hub.Device{hub.MSP430()}})
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	if _, _, err := tb.Push(significantMotion(), ListenerFunc(func(Event) { fires++ })); err != nil {
		t.Fatal(err)
	}
	// The siren FFT condition cannot fit an MSP430-only hub.
	id, err := tb.Manager.Push(sirenPipeline(), ListenerFunc(func(Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Hub.Service(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Manager.Service(); err != nil {
		t.Fatal(err)
	}
	if _, ready, serr := tb.Manager.Status(id); !ready || serr == nil {
		t.Fatalf("siren push should be rejected: ready=%v err=%v", ready, serr)
	}
	// The original condition still runs.
	for i := 0; i < 60; i++ {
		tb.Feed(core.AccelX, 12)
		tb.Feed(core.AccelY, 12)
		tb.Feed(core.AccelZ, 12)
	}
	if fires == 0 {
		t.Fatal("pre-existing condition stopped working after a rejected push")
	}
}
