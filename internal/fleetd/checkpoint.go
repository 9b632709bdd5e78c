package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"sidewinder/internal/telemetry"
)

// Checkpoint is the daemon's durable state: every device's totals, the
// ledger snapshot, and the boot epoch. It is written periodically and on
// drain, always via temp-file + rename so a crash mid-write leaves the
// previous checkpoint intact, and reloaded on startup (bumping the
// epoch) so device totals survive a restart.
//
// On disk a checkpoint is wrapped in a CRC-32 envelope and the previous
// good file is rotated to <path>.bak before each write, so a truncated or
// bit-flipped newest checkpoint falls back to the previous snapshot
// instead of silently resetting the fleet's totals.
type Checkpoint struct {
	Epoch             uint32                   `json:"epoch"`
	Devices           []DeviceStats            `json:"devices"`
	Ledger            telemetry.LedgerSnapshot `json:"ledger"`
	ConservationErrMJ float64                  `json:"conservation_err_mj"`
}

// checkpointFormat identifies the CRC-enveloped on-disk layout.
const checkpointFormat = 2

// BakSuffix is appended to a checkpoint path for the rotated previous
// snapshot.
const BakSuffix = ".bak"

// checkpointEnvelope is the on-disk wrapper: the checkpoint JSON as a raw
// message plus its CRC-32 (IEEE), so any torn write or in-place bit damage
// is detected at load rather than trusted. The CRC covers the COMPACT
// form of the body — JSON encoders are free to re-indent an embedded raw
// message, so whitespace cannot be part of the integrity contract.
type checkpointEnvelope struct {
	Format int             `json:"format"`
	CRC32  uint32          `json:"crc32_ieee"`
	Data   json.RawMessage `json:"checkpoint"`
}

// checkpointCRC is the envelope checksum: CRC-32 (IEEE) over the compact
// rendering of the checkpoint JSON.
func checkpointCRC(data []byte) (uint32, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf.Bytes()), nil
}

// ErrCheckpointCorrupt marks a checkpoint file that exists but cannot be
// trusted: torn JSON, a failed CRC, or an unknown format.
var ErrCheckpointCorrupt = errors.New("fleetd: checkpoint corrupt")

// WriteCheckpoint atomically writes the checkpoint: the JSON body is
// wrapped in a CRC-32 envelope, staged in a temp file, and the previous
// checkpoint (if any) is rotated to <path>.bak before the rename lands —
// at every instant the chain holds at least one intact snapshot.
func WriteCheckpoint(path string, cp Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("fleetd: encoding checkpoint: %w", err)
	}
	crc, err := checkpointCRC(data)
	if err != nil {
		return fmt.Errorf("fleetd: encoding checkpoint: %w", err)
	}
	env := checkpointEnvelope{Format: checkpointFormat, CRC32: crc, Data: data}
	wire, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return fmt.Errorf("fleetd: encoding checkpoint envelope: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("fleetd: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(append(wire, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fleetd: writing checkpoint: %w", werr)
	}
	// Rotate the current checkpoint to .bak before committing the new
	// one — but only after verifying it: rotating a corrupt newest file
	// (the very one startup fell back past) would bury the last good .bak
	// under damage, and a crash before the final rename would then leave
	// the whole chain corrupt. A damaged newest file is deleted instead,
	// so at every instant the chain holds at least one intact snapshot; a
	// crash between the two renames leaves .bak as the newest intact
	// snapshot, which LoadCheckpointDetail accepts cleanly.
	if _, err := readCheckpointFile(path); err == nil {
		if err := os.Rename(path, path+BakSuffix); err != nil {
			os.Remove(tmpName)
			return fmt.Errorf("fleetd: rotating checkpoint: %w", err)
		}
	} else if !os.IsNotExist(err) {
		os.Remove(path)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fleetd: committing checkpoint: %w", err)
	}
	return nil
}

// readCheckpointFile loads and verifies one file of the chain. Anything
// but a CRC-valid envelope — torn JSON, bit damage, a file without the
// envelope — is ErrCheckpointCorrupt.
func readCheckpointFile(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil || len(env.Data) == 0 {
		return Checkpoint{}, fmt.Errorf("%w: %s: no checkpoint envelope (torn write or bit damage)", ErrCheckpointCorrupt, path)
	}
	if env.Format != checkpointFormat {
		return Checkpoint{}, fmt.Errorf("%w: %s: unknown format %d", ErrCheckpointCorrupt, path, env.Format)
	}
	got, cerr := checkpointCRC(env.Data)
	if cerr != nil {
		return Checkpoint{}, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, cerr)
	}
	if got != env.CRC32 {
		return Checkpoint{}, fmt.Errorf("%w: %s: crc32 %08x, want %08x", ErrCheckpointCorrupt, path, got, env.CRC32)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Data, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	return cp.canonical(), nil
}

// canonical returns the checkpoint as WriteCheckpoint would reload it: an
// empty applied-above set is omitted on disk, so it loads as nil however
// the file spelled it, and a loaded checkpoint survives write-back
// unchanged.
func (cp Checkpoint) canonical() Checkpoint {
	for i := range cp.Devices {
		if len(cp.Devices[i].AppliedAbove) == 0 {
			cp.Devices[i].AppliedAbove = nil
		}
	}
	return cp
}

// CheckpointLoadInfo reports where LoadCheckpointDetail found its
// snapshot.
type CheckpointLoadInfo struct {
	// Source is the file the returned checkpoint came from ("" when none
	// was found).
	Source string
	// FellBack is true when the newest checkpoint was corrupt or
	// unreadable and the .bak snapshot was used instead.
	FellBack bool
	// MainErr holds the newest file's load error when FellBack is true.
	MainErr error
}

// LoadCheckpointDetail reads the checkpoint chain: the newest file first,
// then <path>.bak when the newest is corrupt or torn. The info reports
// which file the snapshot came from and whether the newest was rejected.
// A missing chain is not an error (fresh daemon): it returns an empty
// info.Source. A chain where every present file is corrupt returns the
// error — a daemon must never silently reset totals that were supposed
// to be durable.
func LoadCheckpointDetail(path string) (Checkpoint, CheckpointLoadInfo, error) {
	cp, mainErr := readCheckpointFile(path)
	if mainErr == nil {
		return cp, CheckpointLoadInfo{Source: path}, nil
	}
	mainMissing := os.IsNotExist(mainErr)
	bak := path + BakSuffix
	bcp, bakErr := readCheckpointFile(bak)
	if bakErr == nil {
		if mainMissing {
			// Crash between the two rotation renames: .bak is simply the
			// newest intact snapshot, not a degraded fallback.
			return bcp, CheckpointLoadInfo{Source: bak}, nil
		}
		return bcp, CheckpointLoadInfo{Source: bak, FellBack: true, MainErr: mainErr}, nil
	}
	if mainMissing && os.IsNotExist(bakErr) {
		return Checkpoint{}, CheckpointLoadInfo{}, nil
	}
	if mainMissing {
		return Checkpoint{}, CheckpointLoadInfo{}, fmt.Errorf("fleetd: loading checkpoint %s: %w", bak, bakErr)
	}
	return Checkpoint{}, CheckpointLoadInfo{}, fmt.Errorf("fleetd: loading checkpoint %s (and %s): %w", path, bak, mainErr)
}
