package fleetd

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sidewinder/internal/telemetry"
)

func testCheckpoint(epoch uint32, wakes uint64) Checkpoint {
	return Checkpoint{
		Epoch: epoch,
		Devices: []DeviceStats{{
			ID: 7, Wakes: wakes, EnergyMJ: []float64{1.5, 0, 2.25}, TotalMJ: 3.75,
			LastSeq: 45, AppliedSeq: 40, AppliedAbove: []uint32{43, 45},
		}},
		Ledger: telemetry.LedgerSnapshot{TotalMJ: 3.75},
	}
}

func TestCheckpointRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")

	if err := WriteCheckpoint(path, testCheckpoint(1, 10)); err != nil {
		t.Fatalf("WriteCheckpoint #1: %v", err)
	}
	if _, err := os.Stat(path + BakSuffix); !os.IsNotExist(err) {
		t.Fatalf("first write must not create a .bak (err %v)", err)
	}
	if err := WriteCheckpoint(path, testCheckpoint(2, 20)); err != nil {
		t.Fatalf("WriteCheckpoint #2: %v", err)
	}

	cp, info, err := LoadCheckpointDetail(path)
	if err != nil || info.Source != path {
		t.Fatalf("LoadCheckpointDetail: %+v err=%v", info, err)
	}
	if cp.Epoch != 2 || cp.Devices[0].Wakes != 20 {
		t.Fatalf("newest checkpoint = epoch %d wakes %d, want 2/20", cp.Epoch, cp.Devices[0].Wakes)
	}
	if math.Float64bits(cp.Devices[0].EnergyMJ[2]) != math.Float64bits(2.25) {
		t.Fatalf("energy not bit-exact after round trip: %v", cp.Devices[0].EnergyMJ)
	}
	if got := cp.Devices[0].AppliedAbove; len(got) != 2 || got[0] != 43 || got[1] != 45 {
		t.Fatalf("applied-above set did not survive the round trip: %v", got)
	}
	bak, _, err := LoadCheckpointDetail(path + BakSuffix)
	if err != nil || bak.Epoch != 1 {
		t.Fatalf(".bak should hold the previous snapshot (epoch %d, err %v)", bak.Epoch, err)
	}
}

func TestLoadCheckpointMissingChain(t *testing.T) {
	cp, info, err := LoadCheckpointDetail(filepath.Join(t.TempDir(), "nope.checkpoint"))
	if err != nil || info.Source != "" {
		t.Fatalf("missing chain: %+v err=%v", info, err)
	}
	if cp.Epoch != 0 {
		t.Fatalf("missing chain returned a checkpoint: %+v", cp)
	}
}

func TestLoadCheckpointCorruptFallsBackToBak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")
	if err := WriteCheckpoint(path, testCheckpoint(1, 10)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteCheckpoint(path, testCheckpoint(2, 20)); err != nil {
		t.Fatalf("write: %v", err)
	}

	for name, damage := range map[string]func([]byte) []byte{
		"truncated JSON": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":        func([]byte) []byte { return []byte("!!not json at all##") },
		"empty":          func([]byte) []byte { return nil },
		"bit flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip a bit inside the embedded checkpoint body, past the
			// envelope header, so the CRC — not the JSON parser — catches it.
			c[len(c)/2] ^= 0x01
			return c
		},
	} {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if err := os.WriteFile(path, damage(orig), 0o644); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		cp, info, err := LoadCheckpointDetail(path)
		if err != nil {
			t.Fatalf("%s: chain with intact .bak must load: %v", name, err)
		}
		if !info.FellBack || info.Source != path+BakSuffix {
			t.Fatalf("%s: expected fallback to .bak, got %+v", name, info)
		}
		if info.MainErr == nil || cp.Epoch != 1 {
			t.Fatalf("%s: fallback loaded epoch %d (mainErr %v), want 1", name, cp.Epoch, info.MainErr)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
	}
}

// TestWriteCheckpointDoesNotRotateCorruptNewest: after a startup that
// fell back to .bak because the newest file was damaged, the next write
// must not rename that damaged file over the last good .bak — a crash
// between the rotation renames would then leave the whole chain corrupt.
// Damage is deleted, not rotated.
func TestWriteCheckpointDoesNotRotateCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")
	if err := WriteCheckpoint(path, testCheckpoint(1, 10)); err != nil {
		t.Fatalf("write #1: %v", err)
	}
	if err := WriteCheckpoint(path, testCheckpoint(2, 20)); err != nil {
		t.Fatalf("write #2: %v", err)
	}
	if err := os.WriteFile(path, []byte("!!bit damage!!"), 0o644); err != nil {
		t.Fatalf("corrupt newest: %v", err)
	}

	if err := WriteCheckpoint(path, testCheckpoint(3, 30)); err != nil {
		t.Fatalf("write over corrupt newest: %v", err)
	}
	bak, err := readCheckpointFile(path + BakSuffix)
	if err != nil {
		t.Fatalf(".bak destroyed by rotating a corrupt newest file: %v", err)
	}
	if bak.Epoch != 1 {
		t.Fatalf(".bak epoch = %d, want 1 (the last good snapshot, not the damage)", bak.Epoch)
	}
	cp, info, err := LoadCheckpointDetail(path)
	if err != nil || info.Source != path || cp.Epoch != 3 {
		t.Fatalf("newest after write = %+v err=%v epoch=%d, want newest/nil/3", info, err, cp.Epoch)
	}
}

func TestLoadCheckpointWholeChainCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(path+BakSuffix, []byte("{\"torn\":"), 0o644); err != nil {
		t.Fatalf("write bak: %v", err)
	}
	_, info, err := LoadCheckpointDetail(path)
	if err == nil {
		t.Fatalf("whole chain corrupt must be an error (%+v) — a daemon must not silently reset totals", info)
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("error should wrap ErrCheckpointCorrupt: %v", err)
	}
}

func TestLoadCheckpointBakOnlyIsClean(t *testing.T) {
	// Crash between the two rotation renames: main is missing, .bak is the
	// newest intact snapshot. Loading it is not a degraded fallback.
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")
	if err := WriteCheckpoint(path+BakSuffix, testCheckpoint(3, 30)); err != nil {
		t.Fatalf("write bak: %v", err)
	}
	cp, info, err := LoadCheckpointDetail(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if info.FellBack {
		t.Fatalf("bak-only chain must not count as a fallback: %+v", info)
	}
	if info.Source != path+BakSuffix || cp.Epoch != 3 {
		t.Fatalf("loaded %+v epoch %d, want .bak epoch 3", info, cp.Epoch)
	}
}

// TestLoadCheckpointBareJSONFallsBackToBak: the CRC envelope is the only
// checkpoint format, so a newest file holding bare Checkpoint JSON is
// damage like any other and the chain falls back to the intact .bak.
func TestLoadCheckpointBareJSONFallsBackToBak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.checkpoint")
	if err := WriteCheckpoint(path, testCheckpoint(1, 10)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteCheckpoint(path, testCheckpoint(2, 20)); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := json.Marshal(testCheckpoint(5, 50))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	cp, info, err := LoadCheckpointDetail(path)
	if err != nil {
		t.Fatalf("chain with intact .bak must load: %v", err)
	}
	if !info.FellBack || info.Source != path+BakSuffix || cp.Epoch != 1 {
		t.Fatalf("loaded %+v epoch %d, want the .bak fallback at epoch 1", info, cp.Epoch)
	}
	if !errors.Is(info.MainErr, ErrCheckpointCorrupt) {
		t.Fatalf("bare JSON newest should be corrupt, got %v", info.MainErr)
	}
}
