package sensor_test

import (
	"bytes"
	"testing"
	"time"

	"sidewinder/internal/sensor"
	"sidewinder/internal/tracegen"
)

// FuzzReadJSON feeds arbitrary bytes to the JSON trace decoder (the
// `hubemu -trace x.json` path): it must never panic, and any trace it
// accepts must re-encode to a fixed point.
func FuzzReadJSON(f *testing.F) {
	tr, err := tracegen.Robot(tracegen.RobotConfig{Seed: 1, Duration: 200 * time.Millisecond, IdleFraction: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"name":"x","rate_hz":50,"channels":{"MIC":[0,1]}}`))
	f.Add([]byte(`{"rate_hz":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := sensor.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.WriteJSON(&first); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := sensor.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode(decode(encode(decode(p)))) differs from encode(decode(p))")
		}
	})
}
