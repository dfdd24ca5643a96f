package netsim

import (
	"reflect"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// busySwitches counts switches that carried any traffic.
func busySwitches(top *fattree.Topology, res *Result) int {
	n := 0
	for _, sw := range top.SwitchIDs() {
		if res.SwitchTrace[sw].BusyTime() > 0 {
			n++
		}
	}
	return n
}

// crossPodFlows builds light flows between many cross-pod pairs, giving
// ECMP plenty of core choices to spread over.
func crossPodFlows(t *testing.T, top *fattree.Topology) []traffic.Flow {
	t.Helper()
	hosts := top.Hosts()
	var flows []traffic.Flow
	for i := 0; i < len(hosts); i++ {
		for j := range hosts {
			if top.Nodes[hosts[i]].Pod == top.Nodes[hosts[j]].Pod {
				continue
			}
			// Light enough that even full concentration stays uncontended
			// (128 flows x 100 Mbps = 12.8 G << any 100 G link).
			flows = append(flows, traffic.Flow{
				Src: hosts[i], Dst: hosts[j],
				Demand: 100 * units.Mbps, Start: 0, End: 1,
			})
			break
		}
	}
	return flows
}

// TestConcentrateRoutingUsesFewerSwitches: the §4.2 routing policy touches
// no more switches than hash ECMP, freeing the rest to power off.
func TestConcentrateRoutingUsesFewerSwitches(t *testing.T) {
	top, err := fattree.BuildThreeTier(8, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	flows := crossPodFlows(t, top)

	ecmp := New(top)
	eRes, err := ecmp.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	conc := New(top)
	conc.Routing = ConcentrateRouting
	cRes, err := conc.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	eBusy := busySwitches(top, eRes)
	cBusy := busySwitches(top, cRes)
	if cBusy >= eBusy {
		t.Errorf("concentrate used %d switches, ECMP %d — expected fewer", cBusy, eBusy)
	}
	// Same work delivered: light flows are uncontended either way.
	var eBits, cBits float64
	for i := range eRes.Flows {
		eBits += eRes.Flows[i].DeliveredBits
		cBits += cRes.Flows[i].DeliveredBits
	}
	if eBits != cBits {
		t.Errorf("delivered bits differ: %v vs %v", eBits, cBits)
	}
	// And the energy with off-switches sleeping is lower under
	// concentration.
	eEnergy := sleepingEnergy(t, ecmp, eRes)
	cEnergy := sleepingEnergy(t, conc, cRes)
	if cEnergy >= eEnergy {
		t.Errorf("concentrate energy %v should beat ECMP %v", cEnergy, eEnergy)
	}
}

// sleepingEnergy sums two-state switch energy counting only busy switches.
func sleepingEnergy(t *testing.T, s *Sim, res *Result) float64 {
	t.Helper()
	var total float64
	rep, err := s.Energy(res, 0.10, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	for _, sw := range s.Top.SwitchIDs() {
		tr := res.SwitchTrace[sw]
		if tr.BusyTime() == 0 {
			continue
		}
		// 675 W idle / 750 W busy, over the trace.
		for _, seg := range tr {
			p := 675.0
			if seg.Rate > 0 {
				p = 750.0
			}
			total += p * float64(seg.Duration())
		}
	}
	return total
}

// TestConcentrateRoutingDeterministic: two runs pick identical paths.
func TestConcentrateRoutingDeterministic(t *testing.T) {
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	flows := crossPodFlows(t, top)
	r1, err := func() (*Result, error) { s := New(top); s.Routing = ConcentrateRouting; return s.Run(flows) }()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := func() (*Result, error) { s := New(top); s.Routing = ConcentrateRouting; return s.Run(flows) }()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("concentrate routing not deterministic")
	}
}

// TestConcentrateStateResetBetweenRuns: a second Run starts fresh.
func TestConcentrateStateResetBetweenRuns(t *testing.T) {
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := New(top)
	s.Routing = ConcentrateRouting
	flows := crossPodFlows(t, top)
	r1, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if busySwitches(top, r1) != busySwitches(top, r2) {
		t.Error("second run saw stale concentration state")
	}
}

func TestRoutingString(t *testing.T) {
	if HashECMP.String() != "ecmp" || ConcentrateRouting.String() != "concentrate" {
		t.Error("routing names broken")
	}
	if Routing(9).String() != "Routing(9)" {
		t.Error("unknown routing formatting broken")
	}
}
