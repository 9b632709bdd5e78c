package core

import (
	"strings"
	"testing"
)

func TestChannels(t *testing.T) {
	if len(Channels()) != 4 {
		t.Fatalf("Channels() = %v", Channels())
	}
	for _, c := range Channels() {
		if !c.Valid() {
			t.Errorf("%q should be valid", c)
		}
		if c.Rate() <= 0 {
			t.Errorf("%q has rate %g", c, c.Rate())
		}
	}
	if SensorChannel("GYRO_X").Valid() {
		t.Error("GYRO_X should be invalid")
	}
	if SensorChannel("GYRO_X").Rate() != 0 {
		t.Error("invalid channel should have zero rate")
	}
	if _, err := ParseChannel("ACC_X"); err != nil {
		t.Errorf("ParseChannel(ACC_X): %v", err)
	}
	if _, err := ParseChannel("nope"); err == nil {
		t.Error("ParseChannel(nope) should fail")
	}
	if AccelX.Rate() != AccelRateHz || Mic.Rate() != AudioRateHz {
		t.Error("channel rates wired wrong")
	}
}

func TestDefaultCatalogIntegrity(t *testing.T) {
	cat := DefaultCatalog()
	if cat.Len() < 15 {
		t.Fatalf("catalog has only %d algorithms", cat.Len())
	}
	for _, kind := range cat.Kinds() {
		m, err := cat.Get(kind)
		if err != nil {
			t.Fatalf("Get(%s): %v", kind, err)
		}
		if m.Summary == "" {
			t.Errorf("%s: missing summary", kind)
		}
		if m.MinInputs < 1 {
			t.Errorf("%s: MinInputs = %d", kind, m.MinInputs)
		}
		if m.OutLen == nil || m.Cost == nil || m.Memory == nil || m.RateFactor == nil {
			t.Errorf("%s: incomplete models", kind)
		}
		for _, spec := range m.Params {
			if spec.Name == "" {
				t.Errorf("%s: unnamed parameter", kind)
			}
			if spec.Type == EnumParam && len(spec.Enum) == 0 {
				t.Errorf("%s/%s: enum without values", kind, spec.Name)
			}
			if !spec.Required && spec.Type == EnumParam && spec.Default.Str == "" {
				t.Errorf("%s/%s: optional enum without default", kind, spec.Name)
			}
		}
	}
	if _, err := cat.Get("bogus"); err == nil {
		t.Error("Get(bogus) should fail")
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	m := &Meta{Kind: "x", MinInputs: 1, MaxInputs: 1}
	if _, err := NewCatalog(m, m); err == nil {
		t.Error("duplicate kinds should fail")
	}
	if _, err := NewCatalog(&Meta{}); err == nil {
		t.Error("empty kind should fail")
	}
}

// significantMotion builds the pipeline of paper Fig. 2a.
func significantMotion() *Pipeline {
	p := NewPipeline("significantMotion")
	for _, ch := range []SensorChannel{AccelX, AccelY, AccelZ} {
		p.AddBranch(NewBranch(ch).Add(MovingAverage(10)))
	}
	p.Add(VectorMagnitude())
	p.Add(MinThreshold(15))
	return p
}

func TestValidateSignificantMotion(t *testing.T) {
	plan, err := significantMotion().Validate(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) != 5 {
		t.Fatalf("plan has %d nodes, want 5", len(plan.Nodes))
	}
	// IDs are 1-based and sequential, matching paper Fig. 2c.
	for i, n := range plan.Nodes {
		if n.ID != i+1 {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	vm := plan.Nodes[3]
	if vm.Kind != KindVectorMagnitude {
		t.Fatalf("node 4 = %s, want vectorMagnitude", vm.Kind)
	}
	if len(vm.Inputs) != 3 {
		t.Fatalf("vectorMagnitude has %d inputs", len(vm.Inputs))
	}
	for i, in := range vm.Inputs {
		if in.FromChannel() || in.Node != i+1 {
			t.Errorf("vm input %d = %v, want node %d", i, in, i+1)
		}
	}
	th := plan.Nodes[4]
	if th.Kind != KindMinThreshold || th.Inputs[0].Node != 4 {
		t.Errorf("threshold node wrong: %+v", th)
	}
	if th.Params.Float("min") != 15 {
		t.Errorf("threshold min = %g", th.Params.Float("min"))
	}
	if th.Params.Int("sustain") != 1 {
		t.Errorf("sustain default = %d, want 1", th.Params.Int("sustain"))
	}
	if plan.OutputNode() != 5 {
		t.Errorf("OutputNode = %d", plan.OutputNode())
	}
	if got := plan.Channels; len(got) != 3 || got[0] != AccelX || got[2] != AccelZ {
		t.Errorf("Channels = %v", got)
	}
	// Rates: all scalar sample-synchronous stages run at the accel rate.
	for _, n := range plan.Nodes {
		if n.Rate != AccelRateHz || n.OutRate != AccelRateHz {
			t.Errorf("node %d rate = %g/%g, want %g", n.ID, n.Rate, n.OutRate, AccelRateHz)
		}
	}
}

func TestValidateWindowedPipelineRates(t *testing.T) {
	p := NewPipeline("steps-wake")
	p.AddBranch(NewBranch(AccelX).
		Add(MovingAverage(3)).
		Add(Window(25, 0, "rectangular")).
		Add(Stat("stddev")).
		Add(MinThreshold(0.8)))
	plan, err := p.Validate(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	win := plan.Nodes[1]
	if win.OutKind != Vector || win.OutLen != 25 {
		t.Errorf("window out: %s len %d", win.OutKind, win.OutLen)
	}
	if win.Rate != 50 || win.OutRate != 2 {
		t.Errorf("window rates = %g -> %g, want 50 -> 2", win.Rate, win.OutRate)
	}
	stat := plan.Nodes[2]
	if stat.InLen != 25 || stat.Rate != 2 || stat.OutKind != Scalar {
		t.Errorf("stat node resolved wrong: %+v", stat)
	}
}

func TestValidateAudioSpectralChain(t *testing.T) {
	p := NewPipeline("siren-wake")
	p.AddBranch(NewBranch(Mic).
		Add(HighPass(750, 512)).
		Add(FFT()).
		Add(SpectralMag()).
		Add(Tonality(850, 1800, AudioRateHz)).
		Add(MinThresholdSustained(4, 3)))
	plan, err := p.Validate(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	hp, fft, mag := plan.Nodes[0], plan.Nodes[1], plan.Nodes[2]
	if hp.OutLen != 512 {
		t.Errorf("highPass out len = %d", hp.OutLen)
	}
	if fft.OutLen != 1024 {
		t.Errorf("fft out len = %d (interleaved complex)", fft.OutLen)
	}
	if mag.OutLen != 512 {
		t.Errorf("spectralMag out len = %d", mag.OutLen)
	}
	wantRate := AudioRateHz / 512
	if hp.OutRate != wantRate || fft.Rate != wantRate {
		t.Errorf("block rates = %g/%g, want %g", hp.OutRate, fft.Rate, wantRate)
	}
	var f, i float64
	var mem int
	for _, n := range plan.Nodes {
		f += n.Cost.FloatOps * n.Rate
		i += n.Cost.IntOps * n.Rate
		mem += n.Memory
	}
	if f <= 0 || i <= 0 {
		t.Errorf("ops per second = %g/%g", f, i)
	}
	if mem <= 0 {
		t.Error("plan memory should be positive")
	}
}

func TestValidateDualBranchAnd(t *testing.T) {
	p := NewPipeline("music-wake")
	p.AddBranch(
		NewBranch(Mic).Add(Window(512, 0, "")).Add(Stat("variance")).Add(MinThreshold(0.01)),
		NewBranch(Mic).Add(Window(512, 0, "")).Add(ZCRVariance(8)).Add(BandThreshold(0.0001, 0.01)),
	)
	p.Add(And())
	plan, err := p.Validate(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	and := plan.Nodes[len(plan.Nodes)-1]
	if and.Kind != KindAnd || len(and.Inputs) != 2 {
		t.Fatalf("and node: %+v", and)
	}
	if len(plan.Channels) != 1 || plan.Channels[0] != Mic {
		t.Errorf("Channels = %v (MIC used twice should appear once)", plan.Channels)
	}
}

func TestValidateErrors(t *testing.T) {
	cat := DefaultCatalog()
	cases := []struct {
		name string
		p    *Pipeline
		want string
	}{
		{
			"no branches",
			NewPipeline("empty"),
			"no branches",
		},
		{
			"invalid channel",
			NewPipeline("x").AddBranch(NewBranch("BOGUS").Add(MovingAverage(2))),
			"invalid sensor channel",
		},
		{
			"unknown algorithm",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Stage{Kind: "mystery"})),
			"not in platform catalog",
		},
		{
			"aggregator inside branch",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Ratio())),
			"cannot appear inside a branch",
		},
		{
			"unmerged branches",
			NewPipeline("x").AddBranch(
				NewBranch(AccelX).Add(MovingAverage(2)),
				NewBranch(AccelY).Add(MovingAverage(2)),
			),
			"unmerged",
		},
		{
			"kind mismatch scalar into vector consumer",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Stat("mean"))),
			"requires vector",
		},
		{
			"vector output to OUT",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Window(8, 0, ""))),
			"must be scalar",
		},
		{
			"missing required param",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Stage{Kind: KindMovingAvg})),
			"missing required parameter",
		},
		{
			"unknown param",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(
				Stage{Kind: KindMovingAvg, Params: Params{"size": Number(4), "bogus": Number(1)}})),
			"unknown parameter",
		},
		{
			"param out of bounds",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(MovingAverage(0))),
			"outside",
		},
		{
			"non-integer int param",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(
				Stage{Kind: KindMovingAvg, Params: Params{"size": Number(2.5)}})),
			"must be an integer",
		},
		{
			"bad enum",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Window(8, 0, "kaiser"))),
			"not in",
		},
		{
			"window step exceeds size",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(Window(8, 9, ""))),
			"step",
		},
		{
			"band threshold inverted",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(BandThreshold(5, 4))),
			"min 5 > max 4",
		},
		{
			"non power of two filter block",
			NewPipeline("x").AddBranch(NewBranch(Mic).Add(LowPass(100, 100)).Add(Stat("mean"))),
			"power of two",
		},
		{
			"ratio arity",
			NewPipeline("x").AddBranch(
				NewBranch(AccelX).Add(MovingAverage(2)),
				NewBranch(AccelY).Add(MovingAverage(2)),
				NewBranch(AccelZ).Add(MovingAverage(2)),
			).Add(Ratio()),
			"at most 2",
		},
		{
			"and arity",
			NewPipeline("x").AddBranch(NewBranch(AccelX).Add(MovingAverage(2))).Add(And()),
			"at least 2",
		},
		{
			"merge different rates",
			NewPipeline("x").AddBranch(
				NewBranch(AccelX).Add(Window(10, 0, "")).Add(Stat("mean")),
				NewBranch(AccelY).Add(Window(25, 0, "")).Add(Stat("mean")),
			).Add(And()),
			"different emission rates",
		},
		{
			"tonality band inverted",
			NewPipeline("x").AddBranch(NewBranch(Mic).
				Add(Window(64, 0, "")).Add(FFT()).Add(SpectralMag()).
				Add(Tonality(1800, 850, AudioRateHz))),
			"bandLow",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.p.Validate(cat)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestStageString(t *testing.T) {
	s := MovingAverage(10)
	if got := s.String(); got != "movingAvg(size=10)" {
		t.Errorf("String = %q", got)
	}
	if got := VectorMagnitude().String(); got != "vectorMagnitude" {
		t.Errorf("String = %q", got)
	}
	w := Window(25, 5, "hamming")
	if got := w.String(); got != "window(shape=hamming, size=25, step=5)" {
		t.Errorf("String = %q", got)
	}
}

func TestParamValue(t *testing.T) {
	if Number(2.5).String() != "2.5" || Str("mean").String() != "mean" {
		t.Error("ParamValue.String wrong")
	}
	if !Number(1).Equal(Number(1)) || Number(1).Equal(Number(2)) {
		t.Error("numeric Equal wrong")
	}
	if Number(1).Equal(Str("1")) || !Str("a").Equal(Str("a")) {
		t.Error("mixed Equal wrong")
	}
}

func TestParamsClone(t *testing.T) {
	p := Params{"a": Number(1)}
	c := p.Clone()
	c["a"] = Number(2)
	if p.Float("a") != 1 {
		t.Error("Clone should be deep")
	}
	if Params(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestPlanNodeLookup(t *testing.T) {
	plan, err := significantMotion().Validate(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Node(1) == nil || plan.Node(1).Kind != KindMovingAvg {
		t.Error("Node(1) wrong")
	}
	if plan.Node(0) != nil || plan.Node(99) != nil {
		t.Error("out-of-range Node should be nil")
	}
}

func TestInputRefString(t *testing.T) {
	if (InputRef{Channel: AccelX}).String() != "ACC_X" {
		t.Error("channel ref string wrong")
	}
	if (InputRef{Node: 7}).String() != "7" {
		t.Error("node ref string wrong")
	}
}

func TestValueKindAndParamTypeStrings(t *testing.T) {
	if Scalar.String() != "scalar" || Vector.String() != "vector" {
		t.Error("ValueKind strings wrong")
	}
	if ValueKind(9).String() == "" || ParamType(9).String() == "" {
		t.Error("unknown values should stringify diagnostically")
	}
	if IntParam.String() != "int" || FloatParam.String() != "float" || EnumParam.String() != "enum" {
		t.Error("ParamType strings wrong")
	}
}

func TestCostEstimateArithmetic(t *testing.T) {
	a := CostEstimate{FloatOps: 1, IntOps: 2}
	b := CostEstimate{FloatOps: 3, IntOps: 4}
	if s := a.Add(b); s.FloatOps != 4 || s.IntOps != 6 {
		t.Errorf("Add = %+v", s)
	}
	if s := a.Scale(2); s.FloatOps != 2 || s.IntOps != 4 {
		t.Errorf("Scale = %+v", s)
	}
}

func TestMetaIsAggregator(t *testing.T) {
	cat := DefaultCatalog()
	vm, _ := cat.Get(KindVectorMagnitude)
	ma, _ := cat.Get(KindMovingAvg)
	ratio, _ := cat.Get(KindRatio)
	if !vm.IsAggregator() || !ratio.IsAggregator() || ma.IsAggregator() {
		t.Error("IsAggregator misclassifies")
	}
}
