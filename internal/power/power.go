// Package power implements the paper's power model (§2.3): hardware is
// either idle or running at full speed, mapping to two power states, and
// power proportionality relates them:
//
//	proportionality = (max power − idle power) / max power   (Eq. 1)
//
// A Phase is a busy or idle span of a device class; the cluster model
// integrates a Model over phases for the §3.1 efficiency metric.
package power

import (
	"fmt"
	"math"

	"netpowerprop/internal/units"
)

// Model is a two-state power model with a max draw and a proportionality.
// The zero value is a 0 W device and is safe to use.
type Model struct {
	Max units.Power
	// Proportionality in [0,1]: 0 means idle power equals max power
	// (completely non-proportional); 1 means the device draws nothing when
	// idle (perfectly proportional).
	Proportionality float64
}

// NewModel builds a Model, validating the proportionality range.
func NewModel(max units.Power, proportionality float64) (Model, error) {
	if max < 0 {
		return Model{}, fmt.Errorf("power model: negative max power %v", max)
	}
	if proportionality < 0 || proportionality > 1 {
		return Model{}, fmt.Errorf("power model: proportionality %v outside [0,1]", proportionality)
	}
	return Model{Max: max, Proportionality: proportionality}, nil
}

// Idle returns the idle-state power: max·(1 − proportionality).
func (m Model) Idle() units.Power {
	return units.Power(float64(m.Max) * (1 - m.Proportionality))
}

// At returns the power draw at a utilization in [0,1] under the paper's
// two-state assumption: any non-zero utilization draws max power.
// Utilizations outside [0,1] are clamped.
func (m Model) At(utilization float64) units.Power {
	if utilization > 0 {
		return m.Max
	}
	return m.Idle()
}

// AtLinear returns the power draw assuming a linear ramp between idle and
// max: idle + u·(max−idle). The analytical model never uses this, but the
// mechanism simulators (§4.3 rate adaptation) do.
func (m Model) AtLinear(utilization float64) units.Power {
	u := math.Min(1, math.Max(0, utilization))
	idle := float64(m.Idle())
	return units.Power(idle + u*(float64(m.Max)-idle))
}

// Phase is a time span with a single busy/idle state for a device class.
type Phase struct {
	Duration units.Seconds
	Busy     bool
}
