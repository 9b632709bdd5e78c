package sensor

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"sidewinder/internal/core"
)

// WriteJSON encodes the trace as indented JSON. Suited to small traces and
// debugging; large captures should use WriteBinary.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON decodes a trace written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("sensor: decoding trace JSON: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Binary trace format: a little-endian container with float32 samples.
//
//	magic "SWTR" | version u16 | rate f64
//	nameLen u16 | name bytes
//	metaCount u16 | (keyLen u16, key, valLen u16, val)*
//	channelCount u16 | (chanLen u16, chan, sampleCount u32, f32*)*
//	eventCount u32 | (labelLen u16, label, start u32, end u32)*
const (
	binaryMagic   = "SWTR"
	binaryVersion = 1
)

// WriteBinary encodes the trace in the compact binary format. Samples are
// stored as float32, matching the precision of the prototype's hub link.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU16 := func(v int) error { return binary.Write(bw, le, uint16(v)) }
	writeU32 := func(v int) error { return binary.Write(bw, le, uint32(v)) }
	writeStr := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("sensor: string too long (%d)", len(s))
		}
		if err := writeU16(len(s)); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if err := writeU16(binaryVersion); err != nil {
		return err
	}
	if err := binary.Write(bw, le, t.RateHz); err != nil {
		return err
	}
	if err := writeStr(t.Name); err != nil {
		return err
	}

	metaKeys := make([]string, 0, len(t.Meta))
	for k := range t.Meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	if err := writeU16(len(metaKeys)); err != nil {
		return err
	}
	for _, k := range metaKeys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(t.Meta[k]); err != nil {
			return err
		}
	}

	chans := t.ChannelList()
	if err := writeU16(len(chans)); err != nil {
		return err
	}
	for _, ch := range chans {
		if err := writeStr(string(ch)); err != nil {
			return err
		}
		samples := t.Channels[ch]
		if err := writeU32(len(samples)); err != nil {
			return err
		}
		buf := make([]byte, 4*len(samples))
		for i, v := range samples {
			le.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}

	if err := writeU32(len(t.Events)); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := writeStr(e.Label); err != nil {
			return err
		}
		if err := writeU32(e.Start); err != nil {
			return err
		}
		if err := writeU32(e.End); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sensor: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("sensor: bad magic %q", magic)
	}
	le := binary.LittleEndian
	readU16 := func() (int, error) {
		var v uint16
		err := binary.Read(br, le, &v)
		return int(v), err
	}
	readU32 := func() (int, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return int(v), err
	}
	readStr := func() (string, error) {
		n, err := readU16()
		if err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	version, err := readU16()
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("sensor: unsupported trace version %d", version)
	}
	t := &Trace{Channels: make(map[core.SensorChannel][]float64)}
	if err := binary.Read(br, le, &t.RateHz); err != nil {
		return nil, err
	}
	if t.Name, err = readStr(); err != nil {
		return nil, err
	}

	metaCount, err := readU16()
	if err != nil {
		return nil, err
	}
	if metaCount > 0 {
		t.Meta = make(map[string]string, metaCount)
	}
	for i := 0; i < metaCount; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		t.Meta[k] = v
	}

	chanCount, err := readU16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < chanCount; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		ch, err := core.ParseChannel(name)
		if err != nil {
			return nil, err
		}
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		samples, err := readSamples(br, n)
		if err != nil {
			return nil, fmt.Errorf("sensor: reading %s samples: %w", ch, err)
		}
		t.Channels[ch] = samples
	}

	eventCount, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < eventCount; i++ {
		var e Event
		if e.Label, err = readStr(); err != nil {
			return nil, err
		}
		if e.Start, err = readU32(); err != nil {
			return nil, err
		}
		if e.End, err = readU32(); err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// sampleChunk is how many samples readSamples decodes per read.
const sampleChunk = 4096

// readSamples decodes n little-endian float32 samples. It reads in
// fixed-size chunks and grows the result only as samples arrive, so a
// corrupt count fails at the end of the stream instead of allocating
// for samples that are not there.
func readSamples(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 4*min(n, sampleChunk))
	samples := make([]float64, 0, min(n, sampleChunk))
	for len(samples) < n {
		b := buf[:4*min(n-len(samples), sampleChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for j := 0; j < len(b); j += 4 {
			samples = append(samples, float64(math.Float32frombits(binary.LittleEndian.Uint32(b[j:]))))
		}
	}
	return samples, nil
}
