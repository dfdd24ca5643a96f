package eee

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func rateParams() RateParams {
	return DefaultRateParams(10*units.Gbps, 10*units.Watt)
}

func TestDefaultRateParams(t *testing.T) {
	p := rateParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default rate params invalid: %v", err)
	}
	if len(p.Levels) != 4 || p.Levels[3].Speed != 10*units.Gbps {
		t.Errorf("levels = %+v", p.Levels)
	}
	// Power scales sublinearly: the 1 Gbps level draws 30%, not 10%.
	if p.Levels[0].Power != 3*units.Watt {
		t.Errorf("lowest level power = %v, want 3 W", p.Levels[0].Power)
	}
}

func TestRateParamsValidation(t *testing.T) {
	cases := []func(*RateParams){
		func(p *RateParams) { p.Levels = nil },
		func(p *RateParams) { p.Levels[0].Speed = 0 },
		func(p *RateParams) { p.Levels[0].Power = -1 },
		func(p *RateParams) { p.Levels[1].Speed = p.Levels[0].Speed },
		func(p *RateParams) { p.Levels[1].Power = p.Levels[0].Power - 1 },
		func(p *RateParams) { p.DecisionInterval = 0 },
		func(p *RateParams) { p.SwitchTime = -1 },
		func(p *RateParams) { p.Headroom = 0.5 },
	}
	for i, mutate := range cases {
		p := rateParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSimulateRateLowLoadDownRates(t *testing.T) {
	p := rateParams()
	pkts, err := PoissonPackets(3, 10*units.Gbps, 0.05, 12000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateRate(p, pkts)
	if err != nil {
		t.Fatal(err)
	}
	// 5% load fits the 1 Gbps level most of the time: ~65-70% savings.
	if res.Savings < 0.5 {
		t.Errorf("low-load savings = %v, want > 0.5", res.Savings)
	}
	if res.MeanSpeed >= 5*units.Gbps {
		t.Errorf("mean speed = %v, expected heavy down-rating", res.MeanSpeed)
	}
	if res.Energy > res.Baseline {
		t.Error("energy exceeds baseline")
	}
}

func TestSimulateRateHighLoadStaysFast(t *testing.T) {
	p := rateParams()
	pkts, err := PoissonPackets(3, 10*units.Gbps, 0.9, 12000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateRate(p, pkts)
	if err != nil {
		t.Fatal(err)
	}
	// 90% x 1.2 headroom needs the full rate: little saving.
	if res.Savings > 0.10 {
		t.Errorf("high-load savings = %v, want < 0.10", res.Savings)
	}
	if res.MeanSpeed < 9*units.Gbps {
		t.Errorf("mean speed = %v, want near line rate", res.MeanSpeed)
	}
}

func TestSimulateRateSavingsMonotoneInLoad(t *testing.T) {
	p := rateParams()
	prev := 2.0
	for _, util := range []float64{0.05, 0.2, 0.5, 0.9} {
		pkts, err := PoissonPackets(7, 10*units.Gbps, util, 12000, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateRate(p, pkts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Savings >= prev {
			t.Errorf("savings at util %v = %v, not below %v", util, res.Savings, prev)
		}
		prev = res.Savings
	}
}

// TestSleepingVsRateAdaptation reproduces the NSDI'08 comparison the paper
// cites: on a bursty low-utilization trace, sleeping (EEE) saves more than
// rate adaptation, because idle gaps dominate and LPI power (10%) undercuts
// even the lowest operating rate (30%).
func TestSleepingVsRateAdaptation(t *testing.T) {
	lpi := DefaultParams(10*units.Gbps, 10*units.Watt)
	rate := rateParams()
	// Five 100 µs bursts of back-to-back 12 kbit frames at line rate, one
	// at the end of each 1 ms period.
	var pkts []Packet
	const frameBits = 12000
	gap := units.Seconds(frameBits / float64(10*units.Gbps))
	for b := 0; b < 5; b++ {
		start := units.Seconds(b)*1e-3 + (1e-3 - 1e-4)
		for k := 0; k < int(1e-4/gap); k++ {
			pkts = append(pkts, Packet{Arrival: start + units.Seconds(k)*gap, Bits: frameBits})
		}
	}
	sleepRes, err := Simulate(lpi, pkts)
	if err != nil {
		t.Fatal(err)
	}
	rateRes, err := SimulateRate(rate, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if sleepRes.Savings <= rateRes.Savings {
		t.Errorf("on bursty 10%%-duty traffic, sleeping (%v) should beat rate adaptation (%v)",
			sleepRes.Savings, rateRes.Savings)
	}
}

func TestSimulateRateSwitchesCounted(t *testing.T) {
	p := rateParams()
	p.DecisionInterval = 1e-4
	// Alternate a busy and an idle interval: the controller oscillates.
	var pkts []Packet
	for k := 0; k < 10; k += 2 {
		base := units.Seconds(float64(k) * 1e-4)
		for j := 0; j < 50; j++ {
			pkts = append(pkts, Packet{Arrival: base + units.Seconds(float64(j)*2e-6), Bits: 12000})
		}
	}
	res, err := SimulateRate(p, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RateSwitches < 4 {
		t.Errorf("rate switches = %d, expected oscillation", res.RateSwitches)
	}
	if res.MeanDelay < 0 || res.MaxDelay < res.MeanDelay {
		t.Errorf("delay stats inconsistent: %v / %v", res.MeanDelay, res.MaxDelay)
	}
}

func TestSimulateRateErrors(t *testing.T) {
	p := rateParams()
	if _, err := SimulateRate(p, nil); err == nil {
		t.Error("no packets accepted")
	}
	if _, err := SimulateRate(p, []Packet{{Arrival: -1, Bits: 1}}); err == nil {
		t.Error("negative arrival accepted")
	}
	if _, err := SimulateRate(p, []Packet{{Arrival: 0, Bits: 0}}); err == nil {
		t.Error("zero bits accepted")
	}
	bad := p
	bad.Headroom = 0
	if _, err := SimulateRate(bad, []Packet{{Arrival: 0, Bits: 1}}); err == nil {
		t.Error("invalid params accepted")
	}
}

// Property: energy never exceeds baseline; savings in [0,1); delays
// non-negative.
func TestSimulateRateInvariants(t *testing.T) {
	f := func(seed int64, utilRaw uint8) bool {
		util := 0.05 + float64(utilRaw%90)/100
		pkts, err := PoissonPackets(seed, 10*units.Gbps, util, 12000, 0.002)
		if err != nil {
			return false
		}
		res, err := SimulateRate(rateParams(), pkts)
		if err != nil {
			return false
		}
		return res.Energy <= res.Baseline+1e-9 &&
			res.Savings >= 0 && res.Savings < 1 &&
			res.MeanDelay >= 0 && res.MaxDelay >= res.MeanDelay &&
			res.MeanSpeed > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulateRateUnsortedInput(t *testing.T) {
	p := rateParams()
	pkts := []Packet{
		{Arrival: 5e-4, Bits: 12000},
		{Arrival: 1e-4, Bits: 12000},
	}
	res, err := SimulateRate(p, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon <= 0 {
		t.Error("unsorted input mishandled")
	}
	_ = math.Pi
}
