// Package units provides strongly typed physical quantities used throughout
// the power-proportionality model: bandwidth, power, and energy.
//
// All quantities are float64 wrappers with SI-scaled constructors, parsers,
// and human-readable formatting. Arithmetic stays in base units (bits per
// second, watts, joules) so model code never multiplies mismatched scales.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bandwidth is a data rate in bits per second.
type Bandwidth float64

// Common bandwidth scales.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1e3 * BitPerSecond
	Mbps                   = 1e6 * BitPerSecond
	Gbps                   = 1e9 * BitPerSecond
	Tbps                   = 1e12 * BitPerSecond
)

// String formats the bandwidth with an auto-selected SI suffix.
func (b Bandwidth) String() string {
	v := float64(b)
	switch {
	case math.Abs(v) >= float64(Tbps):
		return trimFloat(v/float64(Tbps)) + " Tbps"
	case math.Abs(v) >= float64(Gbps):
		return trimFloat(v/float64(Gbps)) + " Gbps"
	case math.Abs(v) >= float64(Mbps):
		return trimFloat(v/float64(Mbps)) + " Mbps"
	case math.Abs(v) >= float64(Kbps):
		return trimFloat(v/float64(Kbps)) + " Kbps"
	default:
		return trimFloat(v) + " bps"
	}
}

// ParseBandwidth parses strings such as "400G", "400 Gbps", "51.2T",
// "100Mbps", or a bare number interpreted as Gbps (the paper's convention).
func ParseBandwidth(s string) (Bandwidth, error) {
	num, suffix, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse bandwidth %q: %w", s, err)
	}
	switch strings.ToLower(strings.TrimSuffix(strings.TrimSuffix(suffix, "bps"), "b")) {
	case "":
		if suffix == "" {
			return Bandwidth(num) * Gbps, nil
		}
		return Bandwidth(num) * BitPerSecond, nil
	case "k":
		return Bandwidth(num) * Kbps, nil
	case "m":
		return Bandwidth(num) * Mbps, nil
	case "g":
		return Bandwidth(num) * Gbps, nil
	case "t":
		return Bandwidth(num) * Tbps, nil
	default:
		return 0, fmt.Errorf("parse bandwidth %q: unknown suffix %q", s, suffix)
	}
}

// Power is an electrical power in watts.
type Power float64

// Common power scales.
const (
	Watt     Power = 1
	Kilowatt       = 1e3 * Watt
	Megawatt       = 1e6 * Watt
)

// Watts returns the power in watts.
func (p Power) Watts() float64 { return float64(p) }

// Kilowatts returns the power in kW.
func (p Power) Kilowatts() float64 { return float64(p / Kilowatt) }

// String formats the power with an auto-selected SI suffix.
func (p Power) String() string {
	v := float64(p)
	switch {
	case math.Abs(v) >= float64(Megawatt):
		return trimFloat(v/float64(Megawatt)) + " MW"
	case math.Abs(v) >= float64(Kilowatt):
		return trimFloat(v/float64(Kilowatt)) + " kW"
	default:
		return trimFloat(v) + " W"
	}
}

// Energy is an amount of electrical energy in joules.
type Energy float64

// Common energy scales.
const (
	Joule        Energy = 1
	Kilojoule           = 1e3 * Joule
	WattHour            = 3600 * Joule
	KilowattHour        = 1e3 * WattHour
	MegawattHour        = 1e6 * WattHour
)

// String formats the energy with an auto-selected suffix, preferring kWh for
// utility-scale values.
func (e Energy) String() string {
	v := float64(e)
	switch {
	case math.Abs(v) >= float64(MegawattHour):
		return trimFloat(v/float64(MegawattHour)) + " MWh"
	case math.Abs(v) >= float64(KilowattHour):
		return trimFloat(v/float64(KilowattHour)) + " kWh"
	case math.Abs(v) >= float64(Kilojoule):
		return trimFloat(v/float64(Kilojoule)) + " kJ"
	default:
		return trimFloat(v) + " J"
	}
}

// Seconds is a model duration in seconds. The analytical model works in
// normalized iteration time, while the simulator uses wall-clock seconds;
// both share this type.
type Seconds float64

// EnergyOver returns the energy consumed drawing power p for d seconds.
func EnergyOver(p Power, d Seconds) Energy {
	return Energy(float64(p) * float64(d))
}

// AveragePower returns the average power of consuming e over d seconds.
// It returns 0 when d is 0 to keep degenerate intervals harmless.
func AveragePower(e Energy, d Seconds) Power {
	if d == 0 {
		return 0
	}
	return Power(float64(e) / float64(d))
}

// splitQuantity separates "12.5kW" into 12.5 and "kW" (suffix untrimmed of
// unit letters; callers interpret it). Spaces between number and suffix are
// allowed.
func splitQuantity(s string) (float64, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, "", fmt.Errorf("empty quantity")
	}
	i := 0
	for i < len(s) {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			// Guard: 'e'/'E' only counts as part of the number when followed
			// by a digit or sign (scientific notation), not a unit suffix.
			if c == 'e' || c == 'E' {
				if i+1 >= len(s) {
					break
				}
				n := s[i+1]
				if !(n >= '0' && n <= '9') && n != '-' && n != '+' {
					break
				}
			}
			i++
			continue
		}
		break
	}
	num, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, "", err
	}
	return num, strings.TrimSpace(s[i:]), nil
}

// trimFloat renders a float with up to 3 decimals, trimming trailing zeros.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
