package tracegen

import (
	"math"
	"testing"
	"time"

	"sidewinder/internal/core"
	"sidewinder/internal/dsp"
	"sidewinder/internal/sensor"
)

func TestRobotTraceStructure(t *testing.T) {
	tr, err := Robot(RobotConfig{Seed: 1, Duration: 5 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != 5*60*50 {
		t.Errorf("Len = %d, want %d", got, 5*60*50)
	}
	for _, ch := range []core.SensorChannel{core.AccelX, core.AccelY, core.AccelZ} {
		if _, ok := tr.Channels[ch]; !ok {
			t.Errorf("missing channel %s", ch)
		}
	}
	for _, label := range []string{LabelStep, LabelWalk, LabelTransition, LabelHeadbutt} {
		if len(tr.EventsLabeled(label)) == 0 {
			t.Errorf("no %s events generated", label)
		}
	}
}

func TestRobotActivityMix(t *testing.T) {
	for _, idle := range PaperGroups() {
		tr, err := Robot(RobotConfig{Seed: 7, Duration: 20 * time.Minute, IdleFraction: idle})
		if err != nil {
			t.Fatal(err)
		}
		walk := tr.LabeledFraction(LabelWalk)
		trans := tr.LabeledFraction(LabelTransition)
		head := tr.LabeledFraction(LabelHeadbutt)
		active := 1 - idle
		// Each activity fraction should be within a third of its target.
		if tol := 0.35; math.Abs(walk-active*robotWalkShare) > tol*active*robotWalkShare+0.01 {
			t.Errorf("idle %.0f%%: walk fraction %.3f, want ~%.3f", idle*100, walk, active*robotWalkShare)
		}
		if math.Abs(trans-active*robotTransitionShare) > 0.5*active*robotTransitionShare+0.01 {
			t.Errorf("idle %.0f%%: transition fraction %.3f, want ~%.3f", idle*100, trans, active*robotTransitionShare)
		}
		if head == 0 {
			t.Errorf("idle %.0f%%: no headbutt time", idle*100)
		}
	}
}

func TestRobotDeterminism(t *testing.T) {
	a, err := Robot(RobotConfig{Seed: 42, Duration: time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Robot(RobotConfig{Seed: 42, Duration: time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Channels[core.AccelX] {
		if b.Channels[core.AccelX][i] != v {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
	c, err := Robot(RobotConfig{Seed: 43, Duration: time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range a.Channels[core.AccelX] {
		if c.Channels[core.AccelX][i] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestRobotStepSignature(t *testing.T) {
	// The paper's step detector: low-pass x, local maxima in [2.5, 4.5].
	tr, err := Robot(RobotConfig{Seed: 3, Duration: 10 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	steps := tr.EventsLabeled(LabelStep)
	if len(steps) < 50 {
		t.Fatalf("only %d steps generated", len(steps))
	}
	x := tr.Channels[core.AccelX]
	inRange := 0
	for _, e := range steps {
		peak := dsp.Max(x[e.Start:e.End])
		if peak >= 2.5 && peak <= 4.5+1.0 { // noise can push slightly above
			inRange++
		}
	}
	if frac := float64(inRange) / float64(len(steps)); frac < 0.9 {
		t.Errorf("only %.0f%% of step peaks in detector range", frac*100)
	}
}

func TestRobotPostureBands(t *testing.T) {
	tr, err := Robot(RobotConfig{Seed: 5, Duration: 10 * time.Minute, IdleFraction: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	y := tr.Channels[core.AccelY]
	z := tr.Channels[core.AccelZ]
	// Find an idle stretch right after a transition: posture must sit in
	// one of the paper's bands.
	trans := tr.EventsLabeled(LabelTransition)
	if len(trans) == 0 {
		t.Fatal("no transitions")
	}
	checked := 0
	for _, e := range trans {
		idx := e.End + 10
		if idx+10 >= tr.Len() {
			continue
		}
		my := dsp.Mean(y[idx : idx+10])
		mz := dsp.Mean(z[idx : idx+10])
		standingBand := my > -1 && my < 1 && mz > 9 && mz < 11
		sittingBand := my > 3.5 && my < 5.5 && mz > 7.5 && mz < 9.5
		if standingBand || sittingBand {
			checked++
		}
	}
	if float64(checked) < 0.6*float64(len(trans)) {
		t.Errorf("only %d/%d transitions settle into a posture band", checked, len(trans))
	}
}

func TestRobotHeadbuttSignature(t *testing.T) {
	tr, err := Robot(RobotConfig{Seed: 11, Duration: 20 * time.Minute, IdleFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	heads := tr.EventsLabeled(LabelHeadbutt)
	if len(heads) == 0 {
		t.Fatal("no headbutts")
	}
	y := tr.Channels[core.AccelY]
	for _, e := range heads {
		low := dsp.Min(y[e.Start:e.End])
		if low > -3.75 || low < -6.75-0.5 {
			t.Errorf("headbutt minimum %.2f outside [-6.75, -3.75]", low)
		}
	}
}

func TestPaperRobotRuns(t *testing.T) {
	configs, groups := PaperRobotRunSpecs(1, time.Minute)
	if len(configs) != 18 || len(groups) != 18 {
		t.Fatalf("got %d runs in %d groups, want 18", len(configs), len(groups))
	}
	counts := map[int]int{}
	for i, g := range groups {
		counts[g]++
		if idle := PaperGroups()[g-1]; configs[i].IdleFraction != idle {
			t.Errorf("run %d in group %d idles %.1f, want %.1f", i, g, configs[i].IdleFraction, idle)
		}
	}
	if counts[1] != 9 || counts[2] != 6 || counts[3] != 3 {
		t.Errorf("group counts = %v, want 9/6/3", counts)
	}
}

func TestRobotConfigValidation(t *testing.T) {
	if _, err := Robot(RobotConfig{Duration: 0, IdleFraction: 0.5}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Robot(RobotConfig{Duration: time.Minute, IdleFraction: 1.0}); err == nil {
		t.Error("idle fraction 1 should fail")
	}
	if _, err := Robot(RobotConfig{Duration: time.Minute, IdleFraction: -0.1}); err == nil {
		t.Error("negative idle fraction should fail")
	}
}

func TestHumanProfiles(t *testing.T) {
	for _, p := range HumanProfiles() {
		tr, err := Human(HumanConfig{Seed: 9, Duration: 10 * time.Minute, Profile: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		walk := tr.LabeledFraction(LabelWalk)
		if walk < 0.10 || walk > 0.45 {
			t.Errorf("%s: walking fraction %.2f outside plausible band", p, walk)
		}
		if tr.Meta["profile"] != string(p) {
			t.Errorf("%s: meta missing", p)
		}
	}
}

func TestHumanUnknownProfile(t *testing.T) {
	if _, err := Human(HumanConfig{Duration: time.Minute, Profile: "astronaut"}); err == nil {
		t.Error("unknown profile should fail")
	}
	if _, err := Human(HumanConfig{Profile: Office}); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestAudioTraceStructure(t *testing.T) {
	cfg := NewAudioConfig(21, 5*time.Minute, CoffeeShopAudio)
	tr, err := Audio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != int(5*60*core.AudioRateHz) {
		t.Errorf("Len = %d", tr.Len())
	}
	for _, tc := range []struct {
		label string
		want  float64
		tol   float64
	}{
		{LabelMusic, 0.05, 0.03},
		{LabelSpeech, 0.05, 0.03},
		{LabelSiren, 0.02, 0.015},
	} {
		got := tr.LabeledFraction(tc.label)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s fraction = %.3f, want %.3f±%.3f", tc.label, got, tc.want, tc.tol)
		}
	}
	phrase := tr.LabeledFraction(LabelPhrase)
	if phrase <= 0 || phrase > 0.012 {
		t.Errorf("phrase fraction = %.4f, want (0, 0.012]", phrase)
	}
	// Phrases must lie inside speech segments.
	for _, p := range tr.EventsLabeled(LabelPhrase) {
		inside := false
		for _, s := range tr.EventsLabeled(LabelSpeech) {
			if p.Start >= s.Start && p.End <= s.End {
				inside = true
				break
			}
		}
		if !inside {
			t.Errorf("phrase [%d,%d) outside any speech segment", p.Start, p.End)
		}
	}
}

func TestAudioEventsDoNotOverlap(t *testing.T) {
	tr, err := Audio(NewAudioConfig(33, 5*time.Minute, OutdoorsAudio))
	if err != nil {
		t.Fatal(err)
	}
	var prim []sensor.Event
	for _, e := range tr.Events {
		if e.Label != LabelPhrase {
			prim = append(prim, e)
		}
	}
	for i := 1; i < len(prim); i++ {
		if prim[i].Start < prim[i-1].End {
			t.Errorf("events overlap: %+v and %+v", prim[i-1], prim[i])
		}
	}
}

func TestSirenIsPitchedInBand(t *testing.T) {
	tr, err := Audio(NewAudioConfig(55, 5*time.Minute, OfficeAudio))
	if err != nil {
		t.Fatal(err)
	}
	sirens := tr.EventsLabeled(LabelSiren)
	if len(sirens) == 0 {
		t.Fatal("no sirens generated")
	}
	mic := tr.Channels[core.Mic]
	e := sirens[0]
	mid := (e.Start + e.End) / 2
	win := mic[mid : mid+512]
	ratio, freq, err := dsp.PeakToMeanRatio(win, core.AudioRateHz)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 4 {
		t.Errorf("siren tonality ratio = %.1f, want >= 4", ratio)
	}
	if freq < 850 || freq > 1800 {
		t.Errorf("siren dominant frequency = %.0f Hz, want in [850, 1800]", freq)
	}
	// Background right before the siren should not be pitched in band.
	if e.Start > 4000 {
		bg := mic[e.Start-2048 : e.Start-2048+512]
		bgRatio, bgFreq, _ := dsp.PeakToMeanRatio(bg, core.AudioRateHz)
		if bgRatio >= 4 && bgFreq >= 850 && bgFreq <= 1800 {
			t.Error("background is siren-like; detector cannot separate")
		}
	}
}

func TestMusicVsSpeechFeatures(t *testing.T) {
	tr, err := Audio(NewAudioConfig(77, 5*time.Minute, OfficeAudio))
	if err != nil {
		t.Fatal(err)
	}
	mic := tr.Channels[core.Mic]
	zcrVar := func(win []float64, k int) float64 {
		sub := len(win) / k
		rates := make([]float64, k)
		for i := 0; i < k; i++ {
			rates[i] = dsp.ZeroCrossingRate(win[i*sub : (i+1)*sub])
		}
		return dsp.Variance(rates)
	}
	avgFeature := func(label string, f func([]float64) float64) float64 {
		var sum float64
		var n int
		for _, e := range tr.EventsLabeled(label) {
			for s := e.Start; s+512 <= e.End; s += 512 {
				sum += f(mic[s : s+512])
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no %s windows", label)
		}
		return sum / float64(n)
	}
	speechZV := avgFeature(LabelSpeech, func(w []float64) float64 { return zcrVar(w, 8) })
	musicZV := avgFeature(LabelMusic, func(w []float64) float64 { return zcrVar(w, 8) })
	if speechZV <= musicZV {
		t.Errorf("speech ZCR variance (%.5f) should exceed music's (%.5f)", speechZV, musicZV)
	}
	musicVar := avgFeature(LabelMusic, dsp.Variance)
	bedVar := dsp.Variance(mic[:2048]) // trace start is almost surely bed
	if musicVar < 5*bedVar {
		t.Errorf("music variance %.5f should dwarf bed variance %.5f", musicVar, bedVar)
	}
}

func TestAudioConfigValidation(t *testing.T) {
	if _, err := Audio(AudioConfig{Duration: time.Minute, Environment: "moon"}); err == nil {
		t.Error("unknown environment should fail")
	}
	if _, err := Audio(AudioConfig{Environment: OfficeAudio}); err == nil {
		t.Error("zero duration should fail")
	}
	cfg := NewAudioConfig(1, time.Minute, OfficeAudio)
	cfg.MusicFraction = 0.4
	cfg.SpeechFraction = 0.3
	if _, err := Audio(cfg); err == nil {
		t.Error("oversubscribed events should fail")
	}
	cfg = NewAudioConfig(1, time.Minute, OfficeAudio)
	cfg.PhraseFraction = 0.2
	if _, err := Audio(cfg); err == nil {
		t.Error("phrase > speech should fail")
	}
}

func TestAudioDeterminism(t *testing.T) {
	a, _ := Audio(NewAudioConfig(5, time.Minute, CoffeeShopAudio))
	b, _ := Audio(NewAudioConfig(5, time.Minute, CoffeeShopAudio))
	for i, v := range a.Channels[core.Mic] {
		if b.Channels[core.Mic][i] != v {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
}

func TestHelperFunctions(t *testing.T) {
	if smoothstep(-1) != 0 || smoothstep(2) != 1 {
		t.Error("smoothstep clamping wrong")
	}
	if got := smoothstep(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("smoothstep(0.5) = %g", got)
	}
	if bump(0) != 0 || bump(1) != 0 {
		t.Error("bump endpoints should be 0")
	}
	if math.Abs(bump(0.5)-1) > 1e-12 {
		t.Errorf("bump(0.5) = %g", bump(0.5))
	}
}
