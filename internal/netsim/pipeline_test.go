package netsim

import (
	"testing"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/device"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

func smallASIC() asic.Config {
	return asic.Config{
		Ports: 8, Pipelines: 4, MemoryBanks: 4,
		Max: device.SwitchMaxPower, Shares: asic.DefaultShares(),
		PipelineStaticFraction: 0.3,
	}
}

func runRing(t *testing.T) (*Sim, *Result, *fattree.Topology) {
	t.Helper()
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := New(top)
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.2,
		Rate: 40 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	return s, res, top
}

func TestPipelineUtilizationShape(t *testing.T) {
	s, res, top := runRing(t)
	sw := top.SwitchIDs()[0]
	times, utils, err := s.PipelineUtilization(res, sw, smallASIC(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(utils) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(utils))
	}
	for p := range utils {
		if len(utils[p]) != len(times) {
			t.Fatalf("row %d length %d != %d", p, len(utils[p]), len(times))
		}
		for i, u := range utils[p] {
			if u < 0 || u > 1 {
				t.Fatalf("utilization[%d][%d] = %v outside [0,1]", p, i, u)
			}
		}
	}
	// Times are uniform and start at 0.
	if times[0] != 0 || times[1]-times[0] != 0.1 {
		t.Errorf("times malformed: %v...", times[:2])
	}
}

func TestPipelineUtilizationSeesTraffic(t *testing.T) {
	s, res, top := runRing(t)
	// A switch with traffic yields non-zero utilization somewhere.
	for _, sw := range top.SwitchIDs() {
		if res.SwitchTrace[sw].MeanRate() == 0 {
			continue
		}
		_, utils, err := s.PipelineUtilization(res, sw, smallASIC(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		var peak float64
		for _, row := range utils {
			for _, u := range row {
				if u > peak {
					peak = u
				}
			}
		}
		if peak == 0 {
			t.Errorf("switch %d carried traffic but projected utilization is zero", sw)
		}
		return
	}
	t.Fatal("no busy switch found")
}

func TestPipelineUtilizationErrors(t *testing.T) {
	s, res, top := runRing(t)
	sw := top.SwitchIDs()[0]
	if _, _, err := s.PipelineUtilization(nil, sw, smallASIC(), 0.1); err == nil {
		t.Error("nil result accepted")
	}
	if _, _, err := s.PipelineUtilization(res, sw, smallASIC(), 0); err == nil {
		t.Error("zero step accepted")
	}
	host := top.Hosts()[0]
	if _, _, err := s.PipelineUtilization(res, host, smallASIC(), 0.1); err == nil {
		t.Error("host node accepted")
	}
	if _, _, err := s.PipelineUtilization(res, 10_000, smallASIC(), 0.1); err == nil {
		t.Error("out-of-range node accepted")
	}
	// An ASIC with fewer ports than the switch has links must fail.
	tiny := smallASIC()
	tiny.Ports, tiny.Pipelines = 2, 2
	if _, _, err := s.PipelineUtilization(res, sw, tiny, 0.1); err == nil {
		t.Error("undersized ASIC accepted")
	}
	bad := smallASIC()
	bad.Max = 0
	if _, _, err := s.PipelineUtilization(res, sw, bad, 0.1); err == nil {
		t.Error("invalid ASIC config accepted")
	}
}

func TestSwitchDemand(t *testing.T) {
	s, res, top := runRing(t)
	var sw int = -1
	for _, id := range top.SwitchIDs() {
		if res.SwitchTrace[id].MeanRate() > 0 {
			sw = id
			break
		}
	}
	if sw < 0 {
		t.Fatal("no busy switch")
	}
	times, demand, err := s.SwitchDemand(res, sw, 400*units.Gbps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(demand) || len(times) < 2 {
		t.Fatalf("shape: %d/%d", len(times), len(demand))
	}
	var peak float64
	for _, d := range demand {
		if d < 0 || d > 1 {
			t.Fatalf("demand %v outside [0,1]", d)
		}
		if d > peak {
			peak = d
		}
	}
	if peak == 0 {
		t.Error("busy switch projected zero demand")
	}
}

func TestSwitchDemandErrors(t *testing.T) {
	s, res, top := runRing(t)
	sw := top.SwitchIDs()[0]
	if _, _, err := s.SwitchDemand(nil, sw, 400*units.Gbps, 0.1); err == nil {
		t.Error("nil result accepted")
	}
	if _, _, err := s.SwitchDemand(res, sw, 0, 0.1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, _, err := s.SwitchDemand(res, sw, 400*units.Gbps, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, _, err := s.SwitchDemand(res, 10_000, 400*units.Gbps, 0.1); err == nil {
		t.Error("unknown switch accepted")
	}
	if _, _, err := s.SwitchDemand(res, -1, 400*units.Gbps, 0.1); err == nil {
		t.Error("negative node accepted")
	}
	if _, _, err := s.SwitchDemand(res, top.Hosts()[0], 400*units.Gbps, 0.1); err == nil {
		t.Error("host node accepted")
	}
	// A Result from a differently sized topology indexes other devices.
	small, err := fattree.BuildTwoTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	hs := small.Hosts()
	other, err := New(small).Run([]traffic.Flow{{Src: hs[0], Dst: hs[1], Demand: units.Gbps, Start: 0, End: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SwitchDemand(other, sw, 400*units.Gbps, 0.1); err == nil {
		t.Error("result from another topology accepted")
	}
	if _, err := s.Energy(other, 0.5, TwoState); err == nil {
		t.Error("Energy accepted a result from another topology")
	}
}
