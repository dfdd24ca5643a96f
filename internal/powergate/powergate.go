// Package powergate implements §4.1's static optimization: exposing power
// knobs. It defines a registry of gating knobs over an ASIC, a Deployment
// profile describing what a given role actually needs (used ports, L3,
// FIB share), and networking "C-states" — predefined low-power modes that
// bundle knobs without exposing hardware details, mirroring CPU C-states.
package powergate

import (
	"fmt"
	"math"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/units"
)

// Deployment captures the requirements a switch's role places on the
// hardware — the information an operator (or an automatic governor) needs
// to decide which components can be gated.
type Deployment struct {
	// UsedPorts lists the ports that carry links in this deployment.
	UsedPorts []int
	// NeedsL3 reports whether the switch routes (false = pure L2).
	NeedsL3 bool
	// FIBFraction is the share of forwarding-table memory the role needs
	// (e.g. a route-reflector client stores a small part; §4.1).
	FIBFraction float64
	// WakeBudget bounds the wake latency the deployment tolerates; deeper
	// modes with longer wake latencies are skipped above it.
	WakeBudget units.Seconds
}

// Validate checks the deployment against an ASIC configuration.
func (d Deployment) Validate(cfg asic.Config) error {
	seen := make(map[int]bool, len(d.UsedPorts))
	for _, p := range d.UsedPorts {
		if p < 0 || p >= cfg.Ports {
			return fmt.Errorf("powergate: used port %d outside [0,%d)", p, cfg.Ports)
		}
		if seen[p] {
			return fmt.Errorf("powergate: duplicate used port %d", p)
		}
		seen[p] = true
	}
	if d.FIBFraction < 0 || d.FIBFraction > 1 {
		return fmt.Errorf("powergate: FIB fraction %v outside [0,1]", d.FIBFraction)
	}
	if d.WakeBudget < 0 {
		return fmt.Errorf("powergate: negative wake budget %v", d.WakeBudget)
	}
	return nil
}

// Knob is one exposable power control: a named state adjustment derived
// from the deployment.
type Knob struct {
	Name        string
	Description string
	Apply       func(a *asic.ASIC, d Deployment) error
}

// Knob names, used to compose modes.
const (
	KnobGatePorts     = "gate-unused-ports"
	KnobGateMemory    = "gate-unused-memory"
	KnobGateL3        = "gate-l3"
	KnobParkPipelines = "park-empty-pipelines"
)

// StandardKnobs returns the §4.1 knob set.
func StandardKnobs() []Knob {
	return []Knob{
		{
			Name:        KnobGatePorts,
			Description: "power off SerDes of ports with no link (fixes ports that are down in software but powered in hardware)",
			Apply: func(a *asic.ASIC, d Deployment) error {
				used := make(map[int]bool, len(d.UsedPorts))
				for _, p := range d.UsedPorts {
					used[p] = true
				}
				for p := 0; p < a.Config().Ports; p++ {
					if err := a.SetPort(p, used[p]); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name:        KnobGateMemory,
			Description: "power off memory banks beyond the deployment's FIB needs (route-reflector clients store a fraction of the table)",
			Apply: func(a *asic.ASIC, d Deployment) error {
				banks := a.Config().MemoryBanks
				need := int(math.Ceil(d.FIBFraction * float64(banks)))
				if need < 1 {
					need = 1 // always keep one bank for local state
				}
				for b := 0; b < banks; b++ {
					if err := a.SetMemoryBank(b, b < need); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name:        KnobGateL3,
			Description: "power off L3 lookup stages when the switch only forwards at L2",
			Apply: func(a *asic.ASIC, d Deployment) error {
				a.SetL3(d.NeedsL3)
				return nil
			},
		},
		{
			Name:        KnobParkPipelines,
			Description: "power off pipelines none of whose ports are in use",
			Apply: func(a *asic.ASIC, d Deployment) error {
				used := make(map[int]bool)
				for _, p := range d.UsedPorts {
					pipe, err := a.PipelineOf(p)
					if err != nil {
						return err
					}
					used[pipe] = true
				}
				for pipe := 0; pipe < a.Config().Pipelines; pipe++ {
					if err := a.SetPipeline(pipe, used[pipe]); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

// knobByName indexes the standard knobs.
func knobByName() map[string]Knob {
	m := make(map[string]Knob)
	for _, k := range StandardKnobs() {
		m[k.Name] = k
	}
	return m
}

// Mode is a predefined low-power mode — the networking analogue of a CPU
// C-state (§4.1's proposal): a knob bundle with a wake latency, exposed
// without the operator needing to understand the silicon.
type Mode struct {
	Name        string
	Description string
	Knobs       []string
	// WakeLatency is the time to return to full operation from this mode.
	WakeLatency units.Seconds
}

// Modes returns the predefined mode ladder, shallow to deep.
func Modes() []Mode {
	return []Mode{
		{
			Name:        "PM0",
			Description: "fully on: every component powered regardless of use (today's default)",
		},
		{
			Name:        "PM1",
			Description: "gate unused port SerDes",
			Knobs:       []string{KnobGatePorts},
			WakeLatency: 1e-6,
		},
		{
			Name:        "PM2",
			Description: "PM1 plus unused memory banks and L3 stages",
			Knobs:       []string{KnobGatePorts, KnobGateMemory, KnobGateL3},
			WakeLatency: 1e-3,
		},
		{
			Name:        "PM3",
			Description: "PM2 plus parking pipelines with no used ports",
			Knobs:       []string{KnobGatePorts, KnobGateMemory, KnobGateL3, KnobParkPipelines},
			WakeLatency: 50e-3,
		},
	}
}

// Apply configures an ASIC into a mode for a deployment.
func Apply(a *asic.ASIC, d Deployment, mode Mode) error {
	if err := d.Validate(a.Config()); err != nil {
		return err
	}
	knobs := knobByName()
	for _, name := range mode.Knobs {
		k, ok := knobs[name]
		if !ok {
			return fmt.Errorf("powergate: mode %s references unknown knob %q", mode.Name, name)
		}
		if err := k.Apply(a, d); err != nil {
			return fmt.Errorf("powergate: knob %s: %w", name, err)
		}
	}
	return nil
}

// ModeReport is one row of an Evaluate run.
type ModeReport struct {
	Mode    Mode
	Power   units.Power
	Savings float64 // fraction saved vs. PM0
	// Allowed is false when the mode's wake latency exceeds the
	// deployment's budget.
	Allowed bool
}

// Evaluate computes the power of every mode for a deployment, flagging
// modes deeper than the wake budget allows. Reports are ordered
// shallow-to-deep.
func Evaluate(cfg asic.Config, d Deployment) ([]ModeReport, error) {
	if err := d.Validate(cfg); err != nil {
		return nil, err
	}
	var base units.Power
	var out []ModeReport
	for _, mode := range Modes() {
		a, err := asic.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := Apply(a, d, mode); err != nil {
			return nil, err
		}
		p := a.Power()
		if mode.Name == "PM0" {
			base = p
		}
		r := ModeReport{Mode: mode, Power: p, Allowed: mode.WakeLatency <= d.WakeBudget}
		if base > 0 {
			r.Savings = float64(base-p) / float64(base)
		}
		out = append(out, r)
	}
	return out, nil
}

// Best returns the deepest allowed mode (the governor decision).
func Best(reports []ModeReport) (ModeReport, error) {
	idx := -1
	for i, r := range reports {
		if r.Allowed {
			idx = i
		}
	}
	if idx < 0 {
		return ModeReport{}, fmt.Errorf("powergate: no mode within wake budget")
	}
	// Reports are shallow-to-deep; deeper never draws more power, but be
	// safe and pick the minimum-power allowed mode.
	best := reports[idx]
	for _, r := range reports {
		if r.Allowed && r.Power < best.Power {
			best = r
		}
	}
	return best, nil
}
