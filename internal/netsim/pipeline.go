package netsim

import (
	"fmt"
	"sort"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/units"
)

// PipelineUtilization projects one switch's simulated traffic onto an ASIC
// model: the switch's incident links map to ASIC ports in stable
// (adjacency) order, each port belongs to its hard-wired pipeline, and the
// result is a uniformly sampled per-pipeline offered-utilization trace —
// exactly the input the §4.3 (rateadapt) and §4.4 (parking, via
// SwitchDemand) simulators consume. This is the bridge from the
// flow-level fabric simulation to the per-chip mechanism studies.
func (s *Sim) PipelineUtilization(res *Result, switchID int, cfg asic.Config, step units.Seconds) ([]units.Seconds, [][]float64, error) {
	if err := s.checkSwitchResult(res, switchID); err != nil {
		return nil, nil, err
	}
	if step <= 0 {
		return nil, nil, fmt.Errorf("netsim: step %v must be positive", step)
	}
	links := append([]int(nil), s.Top.LinksOf(switchID)...)
	sort.Ints(links)
	if len(links) > cfg.Ports {
		return nil, nil, fmt.Errorf("netsim: switch %d has %d links but the ASIC has %d ports",
			switchID, len(links), cfg.Ports)
	}
	a, err := asic.New(cfg)
	if err != nil {
		return nil, nil, err
	}

	n := int(float64(res.Horizon)/float64(step)) + 1
	if n < 2 {
		n = 2
	}
	times := make([]units.Seconds, n)
	utils := make([][]float64, cfg.Pipelines)
	for p := range utils {
		utils[p] = make([]float64, n)
	}
	// Per-pipeline capacity: its port count times the port speed (taken
	// from each mapped link's speed; unmapped ports idle).
	perPipePorts := cfg.Ports / cfg.Pipelines
	for i := range times {
		times[i] = units.Seconds(i) * step
		for port, lid := range links {
			pipe, err := a.PipelineOf(port)
			if err != nil {
				return nil, nil, err
			}
			link := s.Top.Links[lid]
			capPerPipe := float64(link.Speed) * float64(perPipePorts)
			if capPerPipe <= 0 {
				continue
			}
			utils[pipe][i] += float64(res.LinkTrace[lid].At(times[i])) / capPerPipe
		}
	}
	for p := range utils {
		for i, u := range utils[p] {
			if u > 1 {
				utils[p][i] = 1
			}
		}
	}
	return times, utils, nil
}

// SwitchDemand samples one switch's aggregate offered utilization (of the
// given capacity) — the input the §4.4 parking simulator consumes.
func (s *Sim) SwitchDemand(res *Result, switchID int, capacity units.Bandwidth, step units.Seconds) ([]units.Seconds, []float64, error) {
	if err := s.checkSwitchResult(res, switchID); err != nil {
		return nil, nil, err
	}
	if step <= 0 || capacity <= 0 {
		return nil, nil, fmt.Errorf("netsim: step %v and capacity %v must be positive", step, capacity)
	}
	tr := res.SwitchTrace[switchID]
	n := int(float64(res.Horizon)/float64(step)) + 1
	if n < 2 {
		n = 2
	}
	times := make([]units.Seconds, n)
	demand := make([]float64, n)
	for i := range times {
		times[i] = units.Seconds(i) * step
		u := float64(tr.At(times[i])) / float64(capacity)
		if u > 1 {
			u = 1
		}
		demand[i] = u
	}
	return times, demand, nil
}

// checkSwitchResult rejects a nil result, a result whose traces do not
// index this Sim's topology, and a node ID that is not a switch.
func (s *Sim) checkSwitchResult(res *Result, switchID int) error {
	if err := s.checkResult(res); err != nil {
		return err
	}
	if switchID < 0 || switchID >= len(s.Top.Nodes) || !s.Top.Nodes[switchID].IsSwitch() {
		return fmt.Errorf("netsim: node %d is not a switch", switchID)
	}
	return nil
}
