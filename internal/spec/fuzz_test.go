package spec

import (
	"testing"

	"sidewinder/internal/core"
	"sidewinder/internal/ir"
)

// FuzzSpecParse feeds arbitrary bytes to the JSON spec decoder (the
// `swc` input path): it must never panic, and a spec that parses and
// validates must compile to IR text that ir.ParseAndBind accepts.
func FuzzSpecParse(f *testing.F) {
	f.Add([]byte(significantMotionJSON))
	f.Add([]byte(`{"name": "w", "branches": [{"source": "MIC", "stages": [
		{"kind": "window", "params": {"size": 64, "shape": "hamming"}},
		{"kind": "stat", "params": {"op": "variance"}},
		{"kind": "minThreshold", "params": {"min": 0.5}}]}]}`))
	f.Add([]byte(`{"name": "", "branches": [{"source": "ACC_X"}]}`))
	// A line break in the name once leaked the rest of it into the IR.
	f.Add([]byte(`{"name": "a\n1 -> OUT;", "branches": [{"source": "ACC_X", "stages": [
		{"kind": "movingAvg", "params": {"size": 3}}, {"kind": "minThreshold", "params": {"min": 1}}]}]}`))
	f.Add([]byte(`{"branches": [{"source": "ACC_X", "stages": [{"kind": "movingAvg", "params": {"size": "x"}}]}]}`))

	cat := core.DefaultCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		plan, err := p.Validate(cat)
		if err != nil {
			return
		}
		text := ir.CompileToText(plan)
		if _, err := ir.ParseAndBind(text, cat); err != nil {
			t.Fatalf("a validated spec compiled to IR the binder rejects: %v\n%s", err, text)
		}
	})
}
