package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenConditions is the replay matrix's condition axis: the six app
// conditions the evaluation ships, plus a 2-channel and a 3-channel
// condition, and a 2-channel join whose ACC_X branch emits each sequence
// number 13 samples after its ACC_Y branch. audio marks the conditions
// that read the microphone.
var goldenConditions = []struct {
	ir    string
	audio bool
}{
	{"../../internal/apps/testdata/headbutts.ir", false},
	{"../../internal/apps/testdata/steps.ir", false},
	{"../../internal/apps/testdata/transitions.ir", false},
	{"../../internal/apps/testdata/music.ir", true},
	{"../../internal/apps/testdata/phrase.ir", true},
	{"../../internal/apps/testdata/sirens.ir", true},
	{"testdata/sway.ir", false},
	{"testdata/jolt.ir", false},
	{"testdata/lag.ir", false},
}

// goldenCrashProfiles is the matrix's fault axis: no crashes, frequent
// state-losing resets, and a mix of rarer outages with a capped length.
var goldenCrashProfiles = []string{"", "mtbf=500,down=100,seed=1,kind=reset", "mtbf=3000,down=40,max=200,seed=2"}

// goldenTraces writes the matrix's two input traces: two minutes of robot
// accelerometer data (6000 samples, longer than one replay run) and a
// minute of audio rich enough in music, phrases and sirens that every
// audio condition wakes.
func goldenTraces(t *testing.T, dir string) (accel, audio string) {
	t.Helper()
	robot, err := tracegen.Robot(tracegen.RobotConfig{Seed: 3, Duration: 2 * time.Minute, IdleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mic, err := tracegen.Audio(tracegen.AudioConfig{Seed: 3, Duration: time.Minute, Environment: tracegen.OfficeAudio,
		MusicFraction: 0.15, SpeechFraction: 0.15, SirenFraction: 0.15, PhraseFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return saveTrace(t, dir, "robot.swtr", robot), saveTrace(t, dir, "audio.swtr", mic)
}

func saveTrace(t *testing.T, dir, name string, tr *sensor.Trace) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("output differs from %s (run with -update if the change is intended)\ngot %d bytes, want %d",
		golden, len(got), len(want))
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("first difference at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			break
		}
	}
}

// TestReplayGolden pins the -v report byte for byte over the whole replay
// matrix: every golden condition, both precisions and every crash
// profile. The report carries each wake's sample, node and value, the
// interpreter's work meter, and the crash, drop and state-wipe counts.
// Refresh intentionally changed output with:
//
//	go test ./cmd/hubemu -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	accel, audio := goldenTraces(t, t.TempDir())
	var out bytes.Buffer
	for _, c := range goldenConditions {
		tracePath := accel
		if c.audio {
			tracePath = audio
		}
		for _, prec := range []string{"float64", "q15"} {
			for _, crash := range goldenCrashProfiles {
				fmt.Fprintf(&out, "=== %s -precision %s -crash-profile %q\n", filepath.Base(c.ir), prec, crash)
				if err := run(&out, c.ir, tracePath, "", true, "", "", crash, prec, nil); err != nil {
					t.Fatalf("%s %s %q: %v", c.ir, prec, crash, err)
				}
			}
		}
	}
	checkGolden(t, "replay_v.golden", out.Bytes())
}

// TestReplayTelemetryGolden pins the -metrics and -traceout files of a
// single-channel replay and of two multi-channel replays under crash
// injection.
func TestReplayTelemetryGolden(t *testing.T) {
	dir := t.TempDir()
	accel, _ := goldenTraces(t, dir)
	for _, c := range []struct{ name, ir, crash string }{
		{"steps", "../../internal/apps/testdata/steps.ir", ""},
		{"jolt_crash", "testdata/jolt.ir", goldenCrashProfiles[2]},
		{"lag_crash", "testdata/lag.ir", goldenCrashProfiles[1]},
	} {
		metricsFile := filepath.Join(dir, c.name+"_metrics.json")
		traceFile := filepath.Join(dir, c.name+"_trace.json")
		if err := run(io.Discard, c.ir, accel, "", false, metricsFile, traceFile, c.crash, "float64", nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, kind := range []string{"metrics", "trace"} {
			got, err := os.ReadFile(filepath.Join(dir, c.name+"_"+kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+"_"+kind+".golden.json", got)
		}
	}
}
