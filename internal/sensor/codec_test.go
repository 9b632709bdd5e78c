package sensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"sidewinder/internal/core"
)

// sampleCountClaim returns a 32-byte binary trace whose single ACC_X
// channel claims n samples but carries one byte of sample data.
func sampleCountClaim(n uint32) []byte {
	var b bytes.Buffer
	le := binary.LittleEndian
	b.WriteString(binaryMagic)
	binary.Write(&b, le, uint16(binaryVersion))
	binary.Write(&b, le, 50.0)      // rate
	binary.Write(&b, le, uint16(0)) // name
	binary.Write(&b, le, uint16(0)) // meta count
	binary.Write(&b, le, uint16(1)) // channel count
	binary.Write(&b, le, uint16(len(core.AccelX)))
	b.WriteString(string(core.AccelX))
	binary.Write(&b, le, n)
	b.WriteByte(0)
	return b.Bytes()
}

// TestReadBinaryBoundsAllocationByInput checks that a sample count the
// stream cannot back fails before allocating for it: 2^28 claimed
// samples (1 GiB of float32 plus 2 GiB decoded) must cost under 1 MiB.
func TestReadBinaryBoundsAllocationByInput(t *testing.T) {
	data := sampleCountClaim(1 << 28)
	if len(data) != 32 {
		t.Fatalf("header is %d bytes, want 32", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count claiming 2^28 samples in a 32-byte stream must fail")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("ReadBinary allocated %d bytes for a 32-byte stream; want < 1 MiB", grew)
	}
}

// TestReadBinaryRejectsMaxSampleCount covers the largest claim the u32
// count can make, which once requested 16 GiB up front.
func TestReadBinaryRejectsMaxSampleCount(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(sampleCountClaim(math.MaxUint32))); err == nil {
		t.Fatal("a count claiming 2^32-1 samples in a 32-byte stream must fail")
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary trace decoder: it
// must never panic, and any stream it accepts must re-encode to bytes
// that decode and re-encode to themselves.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	single := &Trace{
		Name:     "one",
		RateHz:   8000,
		Channels: map[core.SensorChannel][]float64{core.Mic: make([]float64, sampleChunk+3)},
	}
	buf.Reset()
	if err := single.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(sampleCountClaim(1 << 28))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.WriteBinary(&first); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if err := again.WriteBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode(decode(encode(decode(p)))) differs from encode(decode(p))")
		}
	})
}
