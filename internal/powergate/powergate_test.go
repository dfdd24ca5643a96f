package powergate

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/units"
)

// halfDeployment uses ports 0..63 (pipelines 0 and 1 of 4), pure L2, a
// quarter of the FIB, and a generous wake budget.
func halfDeployment() Deployment {
	ports := make([]int, 64)
	for i := range ports {
		ports[i] = i
	}
	return Deployment{UsedPorts: ports, NeedsL3: false, FIBFraction: 0.25, WakeBudget: 1}
}

func TestDeploymentValidate(t *testing.T) {
	cfg := asic.DefaultConfig()
	if err := halfDeployment().Validate(cfg); err != nil {
		t.Fatalf("valid deployment rejected: %v", err)
	}
	bad := halfDeployment()
	bad.UsedPorts = []int{5, 5}
	if err := bad.Validate(cfg); err == nil {
		t.Error("duplicate port accepted")
	}
	bad = halfDeployment()
	bad.UsedPorts = []int{200}
	if err := bad.Validate(cfg); err == nil {
		t.Error("out-of-range port accepted")
	}
	bad = halfDeployment()
	bad.FIBFraction = 1.5
	if err := bad.Validate(cfg); err == nil {
		t.Error("FIB fraction > 1 accepted")
	}
	bad = halfDeployment()
	bad.WakeBudget = -1
	if err := bad.Validate(cfg); err == nil {
		t.Error("negative wake budget accepted")
	}
}

func TestModesLadder(t *testing.T) {
	modes := Modes()
	if len(modes) != 4 || modes[0].Name != "PM0" || modes[3].Name != "PM3" {
		t.Fatalf("modes = %+v", modes)
	}
	for i := 1; i < len(modes); i++ {
		if modes[i].WakeLatency <= modes[i-1].WakeLatency {
			t.Errorf("mode %s wake latency not deeper than %s", modes[i].Name, modes[i-1].Name)
		}
		if len(modes[i].Knobs) <= len(modes[i-1].Knobs) {
			t.Errorf("mode %s should bundle more knobs than %s", modes[i].Name, modes[i-1].Name)
		}
	}
}

func TestEvaluateHalfUsedSwitch(t *testing.T) {
	cfg := asic.DefaultConfig()
	reports, err := Evaluate(cfg, halfDeployment())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	// PM0 draws full power, zero savings.
	if reports[0].Power != cfg.Max || reports[0].Savings != 0 {
		t.Errorf("PM0 = %+v", reports[0])
	}
	// Deeper modes save strictly more for this deployment.
	for i := 1; i < len(reports); i++ {
		if reports[i].Power >= reports[i-1].Power {
			t.Errorf("%s power %v not below %s power %v",
				reports[i].Mode.Name, reports[i].Power, reports[i-1].Mode.Name, reports[i-1].Power)
		}
	}
	// PM1 gates 64 of 128 ports: saves half the SerDes share = 17.5%.
	if math.Abs(reports[1].Savings-0.175) > 1e-9 {
		t.Errorf("PM1 savings = %v, want 0.175", reports[1].Savings)
	}
	// PM2 additionally gates 6/8 banks (25% FIB -> 2 banks) and L3:
	// + 6/8*0.15 + 0.25*0.30 = 0.1125 + 0.075.
	wantPM2 := 0.175 + 0.1125 + 0.075
	if math.Abs(reports[2].Savings-wantPM2) > 1e-9 {
		t.Errorf("PM2 savings = %v, want %v", reports[2].Savings, wantPM2)
	}
	// PM3 additionally parks pipelines 2 and 3: + 2/4*0.30, but L3 gating
	// now only applies to the two live pipelines (overlap correction).
	wantPM3 := 0.175 + 0.1125 + 0.30*0.5 + 0.25*0.30*0.5
	if math.Abs(reports[3].Savings-wantPM3) > 1e-9 {
		t.Errorf("PM3 savings = %v, want %v", reports[3].Savings, wantPM3)
	}
	// All modes within the 1 s wake budget.
	for _, r := range reports {
		if !r.Allowed {
			t.Errorf("%s should be allowed", r.Mode.Name)
		}
	}
}

func TestEvaluateWakeBudgetLimitsDepth(t *testing.T) {
	d := halfDeployment()
	d.WakeBudget = 1e-4 // allows PM0, PM1 only (PM2 wakes in 1 ms)
	reports, err := Evaluate(asic.DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, r := range reports {
		allowed[r.Mode.Name] = r.Allowed
	}
	if !allowed["PM0"] || !allowed["PM1"] || allowed["PM2"] || allowed["PM3"] {
		t.Errorf("allowed set = %v", allowed)
	}
	best, err := Best(reports)
	if err != nil {
		t.Fatal(err)
	}
	if best.Mode.Name != "PM1" {
		t.Errorf("best mode = %s, want PM1", best.Mode.Name)
	}
}

func TestBestNoModeAllowed(t *testing.T) {
	reports := []ModeReport{{Mode: Mode{Name: "PM1", WakeLatency: 1}, Allowed: false}}
	if _, err := Best(reports); err == nil {
		t.Error("no allowed mode should fail")
	}
}

func TestApplyFullyUsedSwitchSavesNothing(t *testing.T) {
	cfg := asic.DefaultConfig()
	all := make([]int, cfg.Ports)
	for i := range all {
		all[i] = i
	}
	d := Deployment{UsedPorts: all, NeedsL3: true, FIBFraction: 1, WakeBudget: 1}
	a, _ := asic.New(cfg)
	deepest := Modes()[3]
	if err := Apply(a, d, deepest); err != nil {
		t.Fatal(err)
	}
	if a.Power() != cfg.Max {
		t.Errorf("fully used switch power = %v, want %v (nothing to gate)", a.Power(), cfg.Max)
	}
}

func TestApplyUnknownKnob(t *testing.T) {
	a, _ := asic.New(asic.DefaultConfig())
	err := Apply(a, halfDeployment(), Mode{Name: "X", Knobs: []string{"bogus"}})
	if err == nil {
		t.Error("unknown knob accepted")
	}
}

func TestApplyInvalidDeployment(t *testing.T) {
	a, _ := asic.New(asic.DefaultConfig())
	d := halfDeployment()
	d.FIBFraction = -1
	if err := Apply(a, d, Modes()[1]); err == nil {
		t.Error("invalid deployment accepted")
	}
}

func TestMemoryKnobKeepsOneBank(t *testing.T) {
	cfg := asic.DefaultConfig()
	d := Deployment{UsedPorts: []int{0}, FIBFraction: 0, WakeBudget: 1}
	a, _ := asic.New(cfg)
	if err := Apply(a, d, Modes()[2]); err != nil {
		t.Fatal(err)
	}
	on := 0
	for b := 0; b < cfg.MemoryBanks; b++ {
		if a.MemoryBankOn(b) {
			on++
		}
	}
	if on != 1 {
		t.Errorf("banks on = %d, want 1 (floor)", on)
	}
}

func TestStandardKnobsNamed(t *testing.T) {
	names := map[string]bool{}
	for _, k := range StandardKnobs() {
		if k.Name == "" || k.Description == "" || k.Apply == nil {
			t.Errorf("knob %+v incomplete", k.Name)
		}
		names[k.Name] = true
	}
	for _, want := range []string{KnobGatePorts, KnobGateMemory, KnobGateL3, KnobParkPipelines} {
		if !names[want] {
			t.Errorf("missing knob %s", want)
		}
	}
}

// Property: for any subset of used ports, every mode's power is within
// [MinPower, Max] and savings grow monotonically down the ladder.
func TestEvaluateInvariants(t *testing.T) {
	f := func(mask uint64, l3 bool, fibRaw uint8) bool {
		cfg := asic.DefaultConfig()
		var used []int
		for p := 0; p < 64; p++ {
			if mask&(1<<uint(p)) != 0 {
				used = append(used, p*2) // spread over pipelines
			}
		}
		d := Deployment{
			UsedPorts:   used,
			NeedsL3:     l3,
			FIBFraction: float64(fibRaw%101) / 100,
			WakeBudget:  units.Seconds(1),
		}
		reports, err := Evaluate(cfg, d)
		if err != nil {
			return false
		}
		a, _ := asic.New(cfg)
		for i, r := range reports {
			if r.Power < a.MinPower()-1e-9 || r.Power > cfg.Max+1e-9 {
				return false
			}
			if i > 0 && r.Power > reports[i-1].Power+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
