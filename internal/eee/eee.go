// Package eee models Energy Efficient Ethernet (IEEE 802.3az) — the
// historical link-sleeping approach the paper revisits (§1, §4): a link
// enters Low Power Idle (LPI) when it has nothing to send, pays sleep and
// wake transition times around every active period, and optionally
// coalesces frames to amortize those transitions. The simulator takes a
// packet arrival sequence and reports energy (vs. an always-on link) and
// the latency the sleeping adds — the classic energy/latency trade-off
// that made EEE lose its appeal at high speeds.
package eee

import (
	"fmt"
	"math/rand"
	"sort"

	"netpowerprop/internal/units"
)

// Params configures one EEE link.
type Params struct {
	// Capacity is the link speed.
	Capacity units.Bandwidth
	// ActivePower is the PHY power while transmitting or transitioning.
	ActivePower units.Power
	// LPIPower is the PHY power in Low Power Idle (~10% of active in the
	// 802.3az design).
	LPIPower units.Power
	// SleepTime (Ts) is the active-to-LPI transition duration.
	SleepTime units.Seconds
	// WakeTime (Tw) is the LPI-to-active transition duration.
	WakeTime units.Seconds
	// CoalesceTimer holds the first buffered frame at most this long
	// before forcing a wake (0 disables coalescing: wake immediately).
	CoalesceTimer units.Seconds
	// CoalesceCount wakes early once this many frames are buffered
	// (<=1 disables count-triggered coalescing).
	CoalesceCount int
	// BufferFrames bounds the wake-buffer; frames beyond it are dropped
	// (0 means unlimited).
	BufferFrames int
}

// DefaultParams returns 802.3az-flavored parameters for a link of the
// given speed and PHY active power: microsecond-scale transitions and
// LPI at 10% of active power.
func DefaultParams(capacity units.Bandwidth, active units.Power) Params {
	return Params{
		Capacity:      capacity,
		ActivePower:   active,
		LPIPower:      units.Power(0.1 * float64(active)),
		SleepTime:     2.88e-6,
		WakeTime:      4.48e-6,
		CoalesceTimer: 12e-6,
		CoalesceCount: 32,
		BufferFrames:  1024,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Capacity <= 0 {
		return fmt.Errorf("eee: capacity %v must be positive", p.Capacity)
	}
	if p.ActivePower < 0 || p.LPIPower < 0 {
		return fmt.Errorf("eee: negative power (active %v, lpi %v)", p.ActivePower, p.LPIPower)
	}
	if p.LPIPower > p.ActivePower {
		return fmt.Errorf("eee: LPI power %v above active power %v", p.LPIPower, p.ActivePower)
	}
	if p.SleepTime < 0 || p.WakeTime < 0 || p.CoalesceTimer < 0 {
		return fmt.Errorf("eee: negative transition or coalesce time")
	}
	if p.BufferFrames < 0 {
		return fmt.Errorf("eee: negative buffer bound %d", p.BufferFrames)
	}
	return nil
}

// Packet is one frame arriving at the link.
type Packet struct {
	Arrival units.Seconds
	Bits    float64
}

// Result summarizes a simulation.
type Result struct {
	// Horizon is the simulated span (last departure or last arrival).
	Horizon units.Seconds
	// Energy is the EEE link's energy; Baseline is an always-active link
	// over the same horizon.
	Energy   units.Energy
	Baseline units.Energy
	// Savings is 1 − Energy/Baseline.
	Savings float64
	// Delivered and Dropped count frames.
	Delivered int
	Dropped   int
	// MeanDelay and MaxDelay are the queueing+wake delays added versus an
	// always-on link (transmission time excluded).
	MeanDelay units.Seconds
	MaxDelay  units.Seconds
	// LPITime is the total time spent in Low Power Idle.
	LPITime units.Seconds
}

// Simulate runs the LPI state machine over a packet sequence (sorted by
// arrival; Simulate sorts a copy if needed).
func Simulate(p Params, packets []Packet) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if len(packets) == 0 {
		return Result{}, fmt.Errorf("eee: no packets")
	}
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Arrival < pkts[j].Arrival })
	for i, pk := range pkts {
		if pk.Arrival < 0 || pk.Bits <= 0 {
			return Result{}, fmt.Errorf("eee: packet %d invalid (arrival %v, bits %v)", i, pk.Arrival, pk.Bits)
		}
	}

	var (
		res        Result
		activeTime units.Seconds // time at ActivePower (tx + transitions)
		totalDelay float64
		// linkFree is when the link finished its last transmission.
		linkFree units.Seconds
	)

	i := 0
	n := len(pkts)
	for i < n {
		// Batch collection: the link is in LPI; the first frame starts the
		// coalescing window.
		first := pkts[i].Arrival
		wakeAt := first
		if p.CoalesceTimer > 0 {
			wakeAt = first + p.CoalesceTimer
		}
		j := i + 1
		for j < n && pkts[j].Arrival <= wakeAt {
			if p.CoalesceCount > 1 && j-i+1 >= p.CoalesceCount {
				// Threshold reached: wake as soon as this frame arrives.
				wakeAt = pkts[j].Arrival
				j++
				break
			}
			j++
		}
		// Transmission can begin after the wake transition.
		ready := wakeAt + p.WakeTime
		txStart := ready
		buffered := 0
		// Transmit the batch and any frames arriving while active (FIFO).
		for i < n && (i < j || pkts[i].Arrival <= linkFree) {
			pk := pkts[i]
			start := txStart
			if pk.Arrival > start {
				start = pk.Arrival
			}
			if linkFree > start {
				start = linkFree
			}
			// Buffer occupancy check: frames waiting between arrival and
			// service. Approximate as batch position for the wake batch.
			if p.BufferFrames > 0 && i < j {
				buffered++
				if buffered > p.BufferFrames {
					res.Dropped++
					i++
					continue
				}
			}
			tx := units.Seconds(pk.Bits / float64(p.Capacity))
			finish := start + tx
			delay := float64(start - pk.Arrival)
			totalDelay += delay
			if units.Seconds(delay) > res.MaxDelay {
				res.MaxDelay = units.Seconds(delay)
			}
			res.Delivered++
			linkFree = finish
			i++
			if i == j && i < n && pkts[i].Arrival <= linkFree {
				// Extend the active period: frames arriving during
				// transmission are served without re-sleeping.
				j = i + 1
			}
		}
		// Active span: wake transition start through last bit, plus the
		// sleep transition back to LPI.
		activeTime += (linkFree - wakeAt) + p.WakeTime + p.SleepTime
		// If the next frame arrives during the sleep transition, 802.3az
		// completes the sleep and wakes again; the state machine above
		// charges that wake separately, which is the conservative choice.
	}

	horizon := linkFree + p.SleepTime
	if last := pkts[n-1].Arrival; last > horizon {
		horizon = last
	}
	res.Horizon = horizon
	lpi := horizon - activeTime
	if lpi < 0 {
		lpi = 0
		activeTime = horizon
	}
	res.LPITime = lpi
	res.Energy = units.EnergyOver(p.ActivePower, activeTime) + units.EnergyOver(p.LPIPower, lpi)
	res.Baseline = units.EnergyOver(p.ActivePower, horizon)
	if res.Baseline > 0 {
		res.Savings = 1 - float64(res.Energy)/float64(res.Baseline)
	}
	if res.Delivered > 0 {
		res.MeanDelay = units.Seconds(totalDelay / float64(res.Delivered))
	}
	return res, nil
}

// PoissonPackets generates a deterministic Poisson arrival sequence at the
// given utilization of the link capacity with fixed-size frames, for
// reproducible experiments. It is shorthand for PoissonPacketsRand with a
// fresh rand.New(rand.NewSource(seed)).
func PoissonPackets(seed int64, capacity units.Bandwidth, utilization float64, frameBits float64, horizon units.Seconds) ([]Packet, error) {
	return PoissonPacketsRand(rand.New(rand.NewSource(seed)), capacity, utilization, frameBits, horizon)
}

// PoissonPacketsRand is PoissonPackets with an injected random source. The
// package never touches the global math/rand state: callers own the *rand.Rand
// and therefore the reproducibility of the workload — two calls with
// identically seeded sources yield identical arrival sequences, which is what
// makes EEE scenario rows replayable under the jobs retry/resume path.
func PoissonPacketsRand(rng *rand.Rand, capacity units.Bandwidth, utilization float64, frameBits float64, horizon units.Seconds) ([]Packet, error) {
	if rng == nil {
		return nil, fmt.Errorf("eee: nil random source")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("eee: capacity %v must be positive", capacity)
	}
	if utilization <= 0 || utilization > 1 {
		return nil, fmt.Errorf("eee: utilization %v outside (0,1]", utilization)
	}
	if frameBits <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("eee: frame bits %v and horizon %v must be positive", frameBits, horizon)
	}
	rate := utilization * float64(capacity) / frameBits // frames per second
	var out []Packet
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= float64(horizon) {
			break
		}
		out = append(out, Packet{Arrival: units.Seconds(t), Bits: frameBits})
	}
	if len(out) == 0 {
		// Degenerate draw (tiny horizon): place one frame mid-horizon so
		// callers always get a valid workload.
		out = append(out, Packet{Arrival: horizon / 2, Bits: frameBits})
	}
	return out, nil
}
