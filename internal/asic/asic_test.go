package asic

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func newASIC(t *testing.T) *ASIC {
	t.Helper()
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFullPowerEqualsMax(t *testing.T) {
	a := newASIC(t)
	if got := a.Power(); math.Abs(float64(got-a.Config().Max)) > 1e-6 {
		t.Errorf("full-on power = %v, want %v", got, a.Config().Max)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Pipelines = 0 },
		func(c *Config) { c.MemoryBanks = 0 },
		func(c *Config) { c.Ports = 127 }, // not divisible by 4 pipelines
		func(c *Config) { c.Max = 0 },
		func(c *Config) { c.Shares.SerDes = -0.1 },
		func(c *Config) { c.Shares.Fixed += 0.5 }, // sum != 1
		func(c *Config) { c.PipelineStaticFraction = 1.5 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSharesDistribution(t *testing.T) {
	s := DefaultShares()
	sum := s.SerDes + s.Pipeline + s.Memory + s.Control + s.Fixed
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("default shares sum to %v", sum)
	}
}

func TestPortPipelineMapping(t *testing.T) {
	a := newASIC(t)
	// 128 ports / 4 pipelines = 32 ports each, contiguous blocks.
	for _, tt := range []struct{ port, pipe int }{
		{0, 0}, {31, 0}, {32, 1}, {127, 3},
	} {
		got, err := a.PipelineOf(tt.port)
		if err != nil || got != tt.pipe {
			t.Errorf("PipelineOf(%d) = %d (%v), want %d", tt.port, got, err, tt.pipe)
		}
	}
	if _, err := a.PipelineOf(-1); err == nil {
		t.Error("negative port should fail")
	}
	if _, err := a.PipelineOf(128); err == nil {
		t.Error("out-of-range port should fail")
	}
	ports, err := a.PortsOf(2)
	if err != nil || len(ports) != 32 || ports[0] != 64 || ports[31] != 95 {
		t.Errorf("PortsOf(2) = %v (%v)", ports, err)
	}
	if _, err := a.PortsOf(4); err == nil {
		t.Error("out-of-range pipeline should fail")
	}
	// Round trip: every port maps to a pipeline that contains it.
	for p := 0; p < 128; p++ {
		pipe, _ := a.PipelineOf(p)
		ports, _ := a.PortsOf(pipe)
		found := false
		for _, q := range ports {
			if q == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("port %d not in its own pipeline %d", p, pipe)
		}
	}
}

func TestPortGatingSavesSerDesShare(t *testing.T) {
	a := newASIC(t)
	full := float64(a.Power())
	// Gate half the ports: saves half the SerDes share.
	for p := 0; p < 64; p++ {
		if err := a.SetPort(p, false); err != nil {
			t.Fatal(err)
		}
	}
	want := full - 0.5*0.35*750
	if got := float64(a.Power()); math.Abs(got-want) > 1e-6 {
		t.Errorf("power after gating 64 ports = %v, want %v", got, want)
	}
	if a.PortOn(0) || !a.PortOn(64) {
		t.Error("port state tracking broken")
	}
	if err := a.SetPort(500, false); err == nil {
		t.Error("out-of-range port should fail")
	}
}

func TestPipelineGating(t *testing.T) {
	a := newASIC(t)
	full := float64(a.Power())
	if err := a.SetPipeline(1, false); err != nil {
		t.Fatal(err)
	}
	want := full - 0.30*750/4
	if got := float64(a.Power()); math.Abs(got-want) > 1e-6 {
		t.Errorf("power after gating one pipeline = %v, want %v", got, want)
	}
	if a.PipelineOn(1) || !a.PipelineOn(0) {
		t.Error("pipeline state tracking broken")
	}
	if err := a.SetPipeline(9, false); err == nil {
		t.Error("out-of-range pipeline should fail")
	}
}

func TestFrequencyScaling(t *testing.T) {
	a := newASIC(t)
	full := float64(a.Power())
	// Halving one pipeline's frequency saves half its dynamic share:
	// perPipe = 56.25 W, dynamic = 0.7 of it, saving = 0.35 * 56.25.
	if err := a.SetPipelineFreq(0, 0.5); err != nil {
		t.Fatal(err)
	}
	want := full - 0.5*0.7*(0.30*750/4)
	if got := float64(a.Power()); math.Abs(got-want) > 1e-6 {
		t.Errorf("power at half frequency = %v, want %v", got, want)
	}
	if got := a.PipelineFreq(0); got != 0.5 {
		t.Errorf("freq = %v", got)
	}
	if a.PipelineFreq(-1) != 0 {
		t.Error("out-of-range freq should be 0")
	}
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := a.SetPipelineFreq(0, bad); err == nil {
			t.Errorf("frequency %v should fail", bad)
		}
	}
	if err := a.SetPipelineFreq(9, 0.5); err == nil {
		t.Error("out-of-range pipeline should fail")
	}
}

func TestMemoryBankGating(t *testing.T) {
	a := newASIC(t)
	full := float64(a.Power())
	// Gate 6 of 8 banks (route-reflector client needing 1/4 of the FIB).
	for b := 2; b < 8; b++ {
		if err := a.SetMemoryBank(b, false); err != nil {
			t.Fatal(err)
		}
	}
	want := full - 6.0/8.0*0.15*750
	if got := float64(a.Power()); math.Abs(got-want) > 1e-6 {
		t.Errorf("power after gating 6 banks = %v, want %v", got, want)
	}
	if !a.MemoryBankOn(0) || a.MemoryBankOn(5) {
		t.Error("bank state tracking broken")
	}
	if err := a.SetMemoryBank(8, false); err == nil {
		t.Error("out-of-range bank should fail")
	}
}

func TestL3Gating(t *testing.T) {
	a := newASIC(t)
	full := float64(a.Power())
	a.SetL3(false)
	want := full - L3FractionOfPipeline*0.30*750
	if got := float64(a.Power()); math.Abs(got-want) > 1e-6 {
		t.Errorf("power with L3 gated = %v, want %v", got, want)
	}
	if a.L3On() {
		t.Error("L3 state tracking broken")
	}
	// L3 gating only applies to pipelines that are on.
	a.SetL3(true)
	for i := 0; i < 4; i++ {
		a.SetPipeline(i, false)
	}
	withL3 := a.Power()
	a.SetL3(false)
	if a.Power() != withL3 {
		t.Error("L3 gating changed power of fully-gated pipelines")
	}
}

func TestMinPower(t *testing.T) {
	a := newASIC(t)
	// Gate everything gateable.
	for p := 0; p < 128; p++ {
		a.SetPort(p, false)
	}
	for i := 0; i < 4; i++ {
		a.SetPipeline(i, false)
	}
	for b := 0; b < 8; b++ {
		a.SetMemoryBank(b, false)
	}
	got := float64(a.Power())
	want := float64(a.MinPower())
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("fully gated power = %v, MinPower = %v", got, want)
	}
	// The default shares leave a 20% floor (control + fixed).
	if math.Abs(want-0.20*750) > 1e-6 {
		t.Errorf("MinPower = %v, want 150 W", want)
	}
}

// Property: power is always within [MinPower, Max] whatever the state.
func TestPowerBounded(t *testing.T) {
	f := func(ops []uint16) bool {
		a, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		for _, op := range ops {
			kind := op % 5
			idx := int(op>>3) % 128
			switch kind {
			case 0:
				a.SetPort(idx%128, op&1 == 0)
			case 1:
				a.SetPipeline(idx%4, op&1 == 0)
			case 2:
				a.SetPipelineFreq(idx%4, 0.1+float64(op%900)/1000)
			case 3:
				a.SetMemoryBank(idx%8, op&1 == 0)
			case 4:
				a.SetL3(op&1 == 0)
			}
		}
		p := a.Power()
		return p >= a.MinPower()-units.Power(1e-9) && p <= a.Config().Max+units.Power(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
