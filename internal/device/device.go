// Package device holds the hardware catalog used by the power model:
// GPUs, servers, switches, NICs, and transceivers, with the max-power
// values published in the paper (Tables 1 and 2) and the paper's linear
// extrapolation rule for interface speeds with no datasheet entry.
package device

import (
	"fmt"
	"sort"

	"netpowerprop/internal/units"
)

// Class identifies the broad category a device belongs to; power breakdowns
// (Fig. 2a) are reported per class.
type Class int

// Device classes, in the order the paper's figures report them.
const (
	ClassGPU Class = iota // GPU plus its share of server overhead
	ClassSwitch
	ClassNIC
	ClassTransceiver
)

// String returns the figure-legend name of the class.
func (c Class) String() string {
	switch c {
	case ClassGPU:
		return "GPU&Server"
	case ClassSwitch:
		return "Switches"
	case ClassNIC:
		return "NICs"
	case ClassTransceiver:
		return "Transceiver"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all device classes in report order.
func Classes() []Class {
	return []Class{ClassGPU, ClassSwitch, ClassNIC, ClassTransceiver}
}

// Paper constants (Table 1).
const (
	// H100MaxPower is the rated max power of an Nvidia H100 NVL GPU.
	H100MaxPower = 400 * units.Watt
	// ServerOverheadPerGPU is the per-GPU share of the host server's other
	// components (CPUs, RAM, storage, fans): 800 W across 8 GPUs (§2.3.1).
	ServerOverheadPerGPU = 100 * units.Watt
	// GPUUnitMaxPower is the max power attributed to one GPU including its
	// server share: 500 W (§2.3.1).
	GPUUnitMaxPower = H100MaxPower + ServerOverheadPerGPU
	// SwitchMaxPower is the max power of a 51.2 Tbps switch as reported by
	// Alibaba [27] (Table 1).
	SwitchMaxPower = 750 * units.Watt
	// SwitchCapacity is the switching capacity of the modeled switch.
	SwitchCapacity = 51.2 * units.Tbps
)

// Proportionality defaults (§2.3).
const (
	// ComputeProportionality is the power proportionality of modern servers
	// (~85%, Barroso et al. [4]).
	ComputeProportionality = 0.85
	// NetworkProportionality is the paper's baseline network power
	// proportionality (10%, within the 5–20% literature range).
	NetworkProportionality = 0.10
)

// ratedPoint is one datasheet row of Table 2.
type ratedPoint struct {
	speed units.Bandwidth
	power units.Power
}

// Table 2: NIC power (NVIDIA ConnectX-7 datasheet; 800G and 1600G linearly
// extrapolated) and transceiver power (FS.com; 1600G extrapolated).
var (
	nicTable = []ratedPoint{
		{100 * units.Gbps, 8.6 * units.Watt},
		{200 * units.Gbps, 16.7 * units.Watt},
		{400 * units.Gbps, 25.4 * units.Watt},
		{800 * units.Gbps, 38.6 * units.Watt},
		{1600 * units.Gbps, 58.8 * units.Watt},
	}
	transceiverTable = []ratedPoint{
		{100 * units.Gbps, 4 * units.Watt},
		{200 * units.Gbps, 6.5 * units.Watt},
		{400 * units.Gbps, 10 * units.Watt},
		{800 * units.Gbps, 16.5 * units.Watt},
		{1600 * units.Gbps, 27.27 * units.Watt},
	}
)

// NICPower returns the max power of a NIC serving the given interface speed.
// Exact Table 2 speeds return the published value; other speeds are linearly
// interpolated/extrapolated from the closest datasheet points, mirroring the
// paper's extrapolation rule (§2.3.2).
func NICPower(speed units.Bandwidth) (units.Power, error) {
	return lookupRated(nicTable, speed, "NIC")
}

// TransceiverPower returns the max power of one short-range optical
// transceiver at the given speed. The paper uses these between switches;
// GPU-to-ToR links are electrical and modeled at 0 W.
func TransceiverPower(speed units.Bandwidth) (units.Power, error) {
	return lookupRated(transceiverTable, speed, "transceiver")
}

// RatedSpeeds lists the interface speeds the paper evaluates, ascending.
func RatedSpeeds() []units.Bandwidth {
	out := make([]units.Bandwidth, len(nicTable))
	for i, p := range nicTable {
		out[i] = p.speed
	}
	return out
}

// lookupRated interpolates within the table, or extrapolates linearly from
// the closest pair when speed lies outside the table's range.
func lookupRated(table []ratedPoint, speed units.Bandwidth, what string) (units.Power, error) {
	if speed <= 0 {
		return 0, fmt.Errorf("%s power: non-positive speed %v", what, speed)
	}
	i := sort.Search(len(table), func(i int) bool { return table[i].speed >= speed })
	if i < len(table) && table[i].speed == speed {
		return table[i].power, nil
	}
	// Pick the bracketing (or closest) pair for linear inter/extrapolation.
	var lo, hi ratedPoint
	switch {
	case i == 0:
		lo, hi = table[0], table[1]
	case i == len(table):
		lo, hi = table[len(table)-2], table[len(table)-1]
	default:
		lo, hi = table[i-1], table[i]
	}
	slope := float64(hi.power-lo.power) / float64(hi.speed-lo.speed)
	p := float64(lo.power) + slope*float64(speed-lo.speed)
	if p < 0 {
		p = 0
	}
	return units.Power(p), nil
}

// SwitchPorts returns how many ports a 51.2 Tbps switch exposes at the given
// per-port speed (the radix used to size fat trees, §2.4).
func SwitchPorts(speed units.Bandwidth) (int, error) {
	if speed <= 0 {
		return 0, fmt.Errorf("switch ports: non-positive speed %v", speed)
	}
	n := int(float64(SwitchCapacity) / float64(speed))
	if n < 2 {
		return 0, fmt.Errorf("switch ports: speed %v exceeds half the switch capacity", speed)
	}
	return n, nil
}
