package core

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/device"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/units"
)

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

// TestBaselineComputePower checks the compute side of the baseline:
// 15,360 GPUs x 500 W = 7.68 MW max, 1.152 MW idle (85% proportional).
func TestBaselineComputePower(t *testing.T) {
	c := mustCluster(t, Baseline())
	if got := float64(c.ComputeMaxPower() / units.Megawatt); math.Abs(got-7.68) > 1e-9 {
		t.Errorf("compute max = %v MW, want 7.68", got)
	}
	if got := float64(c.Model(device.ClassGPU).Idle() / units.Megawatt); math.Abs(got-1.152) > 1e-9 {
		t.Errorf("compute idle = %v MW, want 1.152", got)
	}
}

// TestBaselineNetworkPower checks the calibrated network sizing: ~474
// switches, ~15.6k inter-switch links, network max power ~1.057 MW
// (Fig. 2b shows the network at roughly 1 MW).
func TestBaselineNetworkPower(t *testing.T) {
	c := mustCluster(t, Baseline())
	d := c.Design()
	if d.Switches < 470 || d.Switches > 478 {
		t.Errorf("switches = %v, want ~474", d.Switches)
	}
	net := float64(c.NetworkMaxPower() / units.Megawatt)
	if math.Abs(net-1.0569) > 0.002 {
		t.Errorf("network max = %v MW, want ~1.057", net)
	}
	// Component split: switches ~355 kW, NICs ~390 kW, transceivers ~311 kW.
	if got := c.Model(device.ClassSwitch).Max.Kilowatts(); math.Abs(got-355.3) > 1 {
		t.Errorf("switch power = %v kW, want ~355", got)
	}
	if got := c.Model(device.ClassNIC).Max.Kilowatts(); math.Abs(got-390.144) > 1e-6 {
		t.Errorf("NIC power = %v kW, want 390.144", got)
	}
	if got := c.Model(device.ClassTransceiver).Max.Kilowatts(); math.Abs(got-311.5) > 1 {
		t.Errorf("transceiver power = %v kW, want ~311", got)
	}
}

// TestPaperHeadlineNumbers asserts §3.1's two headline results: the network
// accounts for 12% of the cluster's average power, consumed at an 11%
// energy efficiency.
func TestPaperHeadlineNumbers(t *testing.T) {
	c := mustCluster(t, Baseline())
	if share := c.NetworkShare(); math.Abs(share-0.12) > 0.005 {
		t.Errorf("network share = %.4f, paper reports 12%%", share)
	}
	if eff := c.NetworkEfficiency(); math.Abs(eff-0.11) > 0.005 {
		t.Errorf("network efficiency = %.4f, paper reports 11%%", eff)
	}
	// Compute hardware, by contrast, is ~98% efficient on this workload.
	if eff := c.ComputeEfficiency(); eff < 0.95 {
		t.Errorf("compute efficiency = %.4f, expected near 1", eff)
	}
}

// TestBaselineAveragePower checks the absolute scale of Fig. 2b: average
// cluster power ~7.99 MW, peak (computation-phase) power ~8.63 MW.
func TestBaselineAveragePower(t *testing.T) {
	c := mustCluster(t, Baseline())
	if got := float64(c.AveragePower() / units.Megawatt); math.Abs(got-7.989) > 0.01 {
		t.Errorf("average power = %v MW, want ~7.99", got)
	}
	if got := float64(c.PeakPower() / units.Megawatt); math.Abs(got-8.631) > 0.01 {
		t.Errorf("peak power = %v MW, want ~8.63", got)
	}
	// Peak occurs in the computation phase for this compute-heavy cluster.
	if c.TotalPower(PhaseComputation) <= c.TotalPower(PhaseCommunication) {
		t.Error("computation phase should dominate peak power")
	}
	e := c.EnergyPerIteration()
	want := float64(c.AveragePower()) * float64(c.Iteration().Total())
	if math.Abs(float64(e)-want) > 1e-6*want {
		t.Errorf("energy per iteration = %v, want %v", float64(e), want)
	}
}

// TestFig2aComputationBar checks Fig. 2a's computation bar: the GPU&Server
// share is ~88-89% (the paper prints 88.1%) and the rest is idle network.
func TestFig2aComputationBar(t *testing.T) {
	c := mustCluster(t, Baseline())
	bars := c.Fig2a()
	if len(bars) != 3 {
		t.Fatalf("Fig2a bars = %d, want 3", len(bars))
	}
	comp := bars[0]
	if comp.Phase != PhaseComputation {
		t.Errorf("first bar phase = %v", comp.Phase)
	}
	gpuShare := comp.Fraction(device.ClassGPU)
	if math.Abs(gpuShare-0.885) > 0.01 {
		t.Errorf("computation-phase GPU share = %.4f, paper reports 0.881", gpuShare)
	}
	// Everything that is not GPU power is idle network power in this phase.
	if math.Abs(gpuShare+comp.IdleFraction()-1) > 1e-9 {
		t.Errorf("computation bar does not decompose: gpu %v + idle %v != 1",
			gpuShare, comp.IdleFraction())
	}
	if len(comp.Active) != 1 {
		t.Errorf("computation bar active classes = %v, want only GPU", comp.Active)
	}
}

// TestFig2aCommunicationBar: during communication the split between compute
// (idle GPUs) and active network is close to 50/50 (§3.1).
func TestFig2aCommunicationBar(t *testing.T) {
	c := mustCluster(t, Baseline())
	comm := c.Fig2a()[2]
	if comm.Phase != PhaseCommunication {
		t.Errorf("third bar phase = %v", comm.Phase)
	}
	var netActive float64
	for _, cl := range []device.Class{device.ClassSwitch, device.ClassNIC, device.ClassTransceiver} {
		netActive += comm.Fraction(cl)
	}
	if math.Abs(netActive-0.48) > 0.04 {
		t.Errorf("communication-phase network share = %.4f, paper says close to 50/50", netActive)
	}
	if math.Abs(netActive+comm.IdleFraction()-1) > 1e-9 {
		t.Error("communication bar does not decompose")
	}
}

// TestFig2aAverageBar: the average bar mixes the two phases by time; its
// total equals the average cluster power.
func TestFig2aAverageBar(t *testing.T) {
	c := mustCluster(t, Baseline())
	avg := c.Fig2a()[1]
	if avg.Phase != PhaseAverage {
		t.Errorf("middle bar phase = %v", avg.Phase)
	}
	if math.Abs(float64(avg.Total-c.AveragePower())) > 1e-3 {
		t.Errorf("average bar total %v != average power %v", avg.Total, c.AveragePower())
	}
	// Active + idle decomposes.
	var sum float64
	for _, p := range avg.Active {
		sum += float64(p)
	}
	sum += float64(avg.Idle)
	if math.Abs(sum-float64(avg.Total)) > 1e-3 {
		t.Error("average bar does not decompose")
	}
}

func TestFig2bData(t *testing.T) {
	c := mustCluster(t, Baseline())
	f := c.Fig2bData()
	if got := float64(f.ComputePower[PhaseComputation] / units.Megawatt); math.Abs(got-7.68) > 1e-9 {
		t.Errorf("Fig2b compute@computation = %v MW, want 7.68", got)
	}
	if got := float64(f.ComputePower[PhaseCommunication] / units.Megawatt); math.Abs(got-1.152) > 1e-9 {
		t.Errorf("Fig2b compute@communication = %v MW, want 1.152", got)
	}
	// Network power barely moves between phases (10% proportionality).
	netComp := float64(f.NetworkPower[PhaseComputation] / units.Megawatt)
	netComm := float64(f.NetworkPower[PhaseCommunication] / units.Megawatt)
	if netComp >= netComm {
		t.Errorf("network idle %v should be below max %v", netComp, netComm)
	}
	if (netComm-netComp)/netComm > 0.11 {
		t.Errorf("network power swing %v-%v too large for 10%% proportionality", netComp, netComm)
	}
	if math.Abs(f.NetworkEfficiency-0.11) > 0.005 {
		t.Errorf("Fig2b network efficiency = %v, want ~0.11", f.NetworkEfficiency)
	}
	if f.ComputeEfficiency < 0.95 {
		t.Errorf("Fig2b compute efficiency = %v", f.ComputeEfficiency)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := Baseline()
	cfg.GPUs = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero GPUs should fail")
	}
	cfg = Baseline()
	cfg.Bandwidth = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero bandwidth should fail")
	}
	cfg = Baseline()
	cfg.NetworkProportionality = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("proportionality > 1 should fail")
	}
	cfg = Baseline()
	cfg.ComputeProportionality = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative compute proportionality should fail")
	}
	cfg = Baseline()
	cfg.Bandwidth = 40 * units.Tbps
	if _, err := New(cfg); err == nil {
		t.Error("bandwidth beyond switch capacity should fail")
	}
	cfg = Baseline()
	cfg.FixedCommRatio = 2
	if _, err := New(cfg); err == nil {
		t.Error("fixed ratio >= 1 should fail")
	}
}

func TestFixedCommRatioConfig(t *testing.T) {
	cfg := Baseline()
	cfg.FixedCommRatio = 0.10
	cfg.Bandwidth = 1600 * units.Gbps
	c := mustCluster(t, cfg)
	if got := c.Iteration().CommRatio(); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("fixed comm ratio = %v, want 0.10", got)
	}
	// Without pinning, 1600G shrinks the ratio to 0.025/0.925.
	cfg.FixedCommRatio = 0
	c2 := mustCluster(t, cfg)
	if got := c2.Iteration().CommRatio(); got > 0.03 {
		t.Errorf("free comm ratio at 1600G = %v, want ~0.027", got)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseComputation.String() != "Computation" ||
		PhaseCommunication.String() != "Communication" ||
		PhaseAverage.String() != "Average" {
		t.Error("phase names broken")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase formatting broken")
	}
}

// Property: for any proportionality, average power is between the idle-only
// and max-only extremes, and network share is in (0,1).
func TestClusterInvariants(t *testing.T) {
	f := func(pRaw float64, gRaw uint16) bool {
		cfg := Baseline()
		cfg.NetworkProportionality = math.Abs(math.Mod(pRaw, 1.0))
		cfg.GPUs = 1024 + int(gRaw)%100000
		c, err := New(cfg)
		if err != nil {
			return false
		}
		avg := c.AveragePower()
		peak := c.PeakPower()
		if avg <= 0 || peak < avg {
			return false
		}
		share := c.NetworkShare()
		if share <= 0 || share >= 1 {
			return false
		}
		eff := c.NetworkEfficiency()
		return eff > 0 && eff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: average cluster power decreases monotonically as network
// proportionality improves (more proportional hardware never costs power).
func TestAveragePowerMonotoneInProportionality(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1.0))
		pb := math.Abs(math.Mod(b, 1.0))
		if pa > pb {
			pa, pb = pb, pa
		}
		cfgA, cfgB := Baseline(), Baseline()
		cfgA.NetworkProportionality = pa
		cfgB.NetworkProportionality = pb
		ca, err1 := New(cfgA)
		cb, err2 := New(cfgB)
		if err1 != nil || err2 != nil {
			return false
		}
		return cb.AveragePower() <= ca.AveragePower()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the per-host interpolation ablation never yields a larger
// network power than the calibrated absolute mode at the baseline scale.
func TestInterpModesOrdered(t *testing.T) {
	f := func(gRaw uint32) bool {
		gpus := 9000 + int(gRaw)%400000
		cfgAbs, cfgPH := Baseline(), Baseline()
		cfgAbs.GPUs, cfgPH.GPUs = gpus, gpus
		cfgPH.Interp = fattree.InterpPerHost
		ca, err1 := New(cfgAbs)
		cp, err2 := New(cfgPH)
		if err1 != nil || err2 != nil {
			return false
		}
		return cp.NetworkMaxPower() <= ca.NetworkMaxPower()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
