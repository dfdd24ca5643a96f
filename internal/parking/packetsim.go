package parking

import (
	"fmt"
	"sort"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/sim"
	"netpowerprop/internal/units"
)

// Packet-level validation of the fluid model: the same switch, circuit
// switch, and parking policy, but driven by individual frames through the
// discrete-event kernel. The fluid Simulate is what the studies sweep
// (fast); SimulatePackets is the ground truth it is checked against
// (TestFluidMatchesPackets).

// Arrival is one frame offered to the switch.
type Arrival struct {
	At   units.Seconds
	Bits float64
}

// PacketResult summarizes a packet-level run.
type PacketResult struct {
	Delivered int
	Dropped   int
	// MeanDelay and MaxDelay are queueing delays (service excluded).
	MeanDelay units.Seconds
	MaxDelay  units.Seconds
	Energy    units.Energy
	Baseline  units.Energy
	Savings   float64
	// Reconfigurations counts pipeline state changes.
	Reconfigurations int
	Horizon          units.Seconds
}

// SimulatePackets drives the parking policy at packet granularity. tick is
// the policy's evaluation interval (the fluid model's sample step).
func SimulatePackets(cfg Config, arrivals []Arrival, pol Policy, tick units.Seconds) (PacketResult, error) {
	var res PacketResult
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if len(arrivals) == 0 {
		return res, fmt.Errorf("parking: no arrivals")
	}
	if tick <= 0 {
		return res, fmt.Errorf("parking: tick %v must be positive", tick)
	}
	if pol == nil {
		return res, fmt.Errorf("parking: nil policy")
	}
	pkts := make([]Arrival, len(arrivals))
	copy(pkts, arrivals)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].At < pkts[j].At })
	for i, a := range pkts {
		if a.At < 0 || a.Bits <= 0 {
			return res, fmt.Errorf("parking: arrival %d invalid (at %v, bits %v)", i, a.At, a.Bits)
		}
	}
	horizon := pkts[len(pkts)-1].At + tick

	a, err := asic.New(cfg.ASIC)
	if err != nil {
		return res, err
	}
	totalCap := float64(asicCapacity(cfg.ASIC))
	perPipe := totalCap / float64(cfg.ASIC.Pipelines)

	type state struct {
		active      int
		queueBits   float64
		queue       []Arrival
		serving     bool
		servedBits  float64 // bits served since the last policy tick
		totalDelay  float64
		reconfigs   int
		delivered   int
		dropped     int
		maxDelay    float64
		setPipes    func(n int)
		serviceRate func() float64
	}
	st := &state{active: cfg.ASIC.Pipelines}
	st.setPipes = func(n int) {
		for p := 0; p < cfg.ASIC.Pipelines; p++ {
			_ = a.SetPipeline(p, p < n)
		}
	}
	st.serviceRate = func() float64 { return float64(st.active) * perPipe }

	var eng sim.Engine
	meter := sim.NewMeter(0, a.Power()+cfg.CircuitSwitchPower)

	var startService func(e *sim.Engine)
	startService = func(e *sim.Engine) {
		if st.serving || len(st.queue) == 0 || st.active == 0 {
			return
		}
		st.serving = true
		pk := st.queue[0]
		st.queue = st.queue[1:]
		st.queueBits -= pk.Bits
		delay := float64(e.Now() - pk.At)
		if delay < 0 {
			delay = 0
		}
		st.totalDelay += delay
		if delay > st.maxDelay {
			st.maxDelay = delay
		}
		rate := st.serviceRate()
		e.After(units.Seconds(pk.Bits/rate), func(e2 *sim.Engine) {
			st.serving = false
			st.delivered++
			st.servedBits += pk.Bits
			startService(e2)
		})
	}

	// Arrivals.
	for _, pk := range pkts {
		pk := pk
		eng.Schedule(pk.At, func(e *sim.Engine) {
			if st.queueBits+pk.Bits > cfg.BufferBits {
				st.dropped++
				return
			}
			st.queue = append(st.queue, pk)
			st.queueBits += pk.Bits
			startService(e)
		})
	}

	// Policy ticks.
	pendingWakes := 0
	var tickFn func(e *sim.Engine)
	tickFn = func(e *sim.Engine) {
		util := st.servedBits / (totalCap * float64(tick))
		if util > 1 {
			util = 1
		}
		st.servedBits = 0
		want := pol.Decide(e.Now(), util, st.active)
		if want < cfg.MinActive {
			want = cfg.MinActive
		}
		if want > cfg.ASIC.Pipelines {
			want = cfg.ASIC.Pipelines
		}
		switch {
		case want > st.active+pendingWakes:
			n := want - st.active - pendingWakes
			pendingWakes += n
			st.reconfigs += n
			e.After(cfg.WakeLatency, func(e2 *sim.Engine) {
				st.active += n
				pendingWakes -= n
				st.setPipes(st.active)
				meter.Set(e2.Now(), a.Power()+cfg.CircuitSwitchPower)
				startService(e2)
			})
		case want < st.active:
			st.reconfigs += st.active - want
			st.active = want
			st.setPipes(st.active)
			meter.Set(e.Now(), a.Power()+cfg.CircuitSwitchPower)
		}
		if e.Now()+tick < horizon {
			e.After(tick, tickFn)
		}
	}
	eng.Schedule(tick, tickFn)

	eng.RunUntil(horizon)

	res.Delivered = st.delivered
	res.Dropped = st.dropped
	res.Reconfigurations = st.reconfigs
	res.Horizon = horizon
	if st.delivered > 0 {
		res.MeanDelay = units.Seconds(st.totalDelay / float64(st.delivered))
	}
	res.MaxDelay = units.Seconds(st.maxDelay)
	res.Energy = meter.Energy(horizon)
	base, err := asic.New(cfg.ASIC)
	if err != nil {
		return res, err
	}
	res.Baseline = units.EnergyOver(base.Power(), horizon)
	if res.Baseline > 0 {
		res.Savings = 1 - float64(res.Energy)/float64(res.Baseline)
	}
	return res, nil
}

// ArrivalsFromDemand expands a sampled demand trace into deterministic
// evenly spaced frames, so the packet-level and fluid simulators can run
// the same workload.
func ArrivalsFromDemand(cfg Config, times []units.Seconds, demand []float64, frameBits float64) ([]Arrival, error) {
	if len(times) < 2 || len(demand) != len(times) {
		return nil, fmt.Errorf("parking: need matching times/demand with >= 2 samples")
	}
	if frameBits <= 0 {
		return nil, fmt.Errorf("parking: frame bits %v must be positive", frameBits)
	}
	step := times[1] - times[0]
	if step <= 0 {
		return nil, fmt.Errorf("parking: non-increasing sample times")
	}
	totalCap := float64(asicCapacity(cfg.ASIC))
	var out []Arrival
	for i, u := range demand {
		if u < 0 || u > 1 {
			return nil, fmt.Errorf("parking: demand %v outside [0,1] at sample %d", u, i)
		}
		bits := u * totalCap * float64(step)
		n := int(bits / frameBits)
		if n == 0 {
			continue
		}
		gap := step / units.Seconds(n)
		for k := 0; k < n; k++ {
			out = append(out, Arrival{At: times[i] + units.Seconds(k)*gap, Bits: frameBits})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("parking: demand trace yields no frames")
	}
	return out, nil
}
