// Package asic models a switching ASIC at the granularity the paper's §4
// mechanisms need: packet pipelines with a fixed port-to-pipeline mapping
// (§4.4's premise), per-port SerDes lanes, shared memory banks, a control
// block, and a fixed remainder. Each component can be power-gated (§4.1)
// and pipelines can be frequency-scaled (§4.3); Power() folds the current
// state into a single draw.
package asic

import (
	"fmt"

	"netpowerprop/internal/device"
	"netpowerprop/internal/units"
)

// Shares splits the ASIC's maximum power across component groups. The
// fractions must sum to 1.
type Shares struct {
	// SerDes is the share drawn by the port SerDes lanes, split evenly
	// across ports. Interface I/O dominates modern switch power, so this
	// is the largest share by default.
	SerDes float64
	// Pipeline is the share drawn by the packet pipelines at full
	// frequency, split evenly across pipelines.
	Pipeline float64
	// Memory is the share drawn by packet-buffer/table memory banks.
	Memory float64
	// Control is the share of the control plane (CPU, management).
	Control float64
	// Fixed is the non-gateable remainder (fans, board, PHY misc).
	Fixed float64
}

// validate checks the fractions form a distribution.
func (s Shares) validate() error {
	for name, v := range map[string]float64{
		"serdes": s.SerDes, "pipeline": s.Pipeline, "memory": s.Memory,
		"control": s.Control, "fixed": s.Fixed,
	} {
		if v < 0 {
			return fmt.Errorf("asic: negative %s share %v", name, v)
		}
	}
	sum := s.SerDes + s.Pipeline + s.Memory + s.Control + s.Fixed
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("asic: shares sum to %v, want 1", sum)
	}
	return nil
}

// DefaultShares reflects the rough consensus breakdown for merchant
// silicon: I/O (SerDes) dominates, then pipelines, then memory.
func DefaultShares() Shares {
	return Shares{SerDes: 0.35, Pipeline: 0.30, Memory: 0.15, Control: 0.10, Fixed: 0.10}
}

// Config sizes an ASIC.
type Config struct {
	Ports     int
	Pipelines int
	// MemoryBanks is the number of independently gateable memory banks.
	MemoryBanks int
	// Max is the ASIC's total maximum power.
	Max units.Power
	// Shares splits Max across components.
	Shares Shares
	// PipelineStaticFraction is the share of a pipeline's power that does
	// not scale with frequency (clock tree, leakage); the rest is dynamic
	// and scales linearly with the frequency setting (§4.3).
	PipelineStaticFraction float64
}

// DefaultConfig models the paper's 51.2 Tbps switch: 128 x 400 G ports,
// 4 pipelines, 8 memory banks, 750 W.
func DefaultConfig() Config {
	return Config{
		Ports:                  128,
		Pipelines:              4,
		MemoryBanks:            8,
		Max:                    device.SwitchMaxPower,
		Shares:                 DefaultShares(),
		PipelineStaticFraction: 0.3,
	}
}

// ASIC is a configured switch chip with mutable power state. Use New; the
// zero value is not usable.
type ASIC struct {
	cfg Config

	portOn []bool
	pipeOn []bool
	// pipeFreq is the per-pipeline frequency setting in (0,1].
	pipeFreq []float64
	bankOn   []bool
	// l3 models the routing (L3) functionality share of each pipeline; a
	// pure L2 deployment can gate it (§4.1's example). It costs
	// L3FractionOfPipeline of each active pipeline's power.
	l3 bool
}

// L3FractionOfPipeline is the pipeline power share attributable to L3
// lookup stages (gated when the switch is configured for pure L2).
const L3FractionOfPipeline = 0.25

// New builds an ASIC with everything powered on at full frequency.
func New(cfg Config) (*ASIC, error) {
	if cfg.Ports < 1 || cfg.Pipelines < 1 || cfg.MemoryBanks < 1 {
		return nil, fmt.Errorf("asic: ports %d, pipelines %d, banks %d must all be positive",
			cfg.Ports, cfg.Pipelines, cfg.MemoryBanks)
	}
	if cfg.Ports%cfg.Pipelines != 0 {
		return nil, fmt.Errorf("asic: %d ports do not divide evenly across %d pipelines",
			cfg.Ports, cfg.Pipelines)
	}
	if cfg.Max <= 0 {
		return nil, fmt.Errorf("asic: max power %v must be positive", cfg.Max)
	}
	if err := cfg.Shares.validate(); err != nil {
		return nil, err
	}
	if cfg.PipelineStaticFraction < 0 || cfg.PipelineStaticFraction > 1 {
		return nil, fmt.Errorf("asic: pipeline static fraction %v outside [0,1]", cfg.PipelineStaticFraction)
	}
	a := &ASIC{
		cfg:      cfg,
		portOn:   make([]bool, cfg.Ports),
		pipeOn:   make([]bool, cfg.Pipelines),
		pipeFreq: make([]float64, cfg.Pipelines),
		bankOn:   make([]bool, cfg.MemoryBanks),
		l3:       true,
	}
	for i := range a.portOn {
		a.portOn[i] = true
	}
	for i := range a.pipeOn {
		a.pipeOn[i] = true
		a.pipeFreq[i] = 1
	}
	for i := range a.bankOn {
		a.bankOn[i] = true
	}
	return a, nil
}

// Config returns the sizing configuration.
func (a *ASIC) Config() Config { return a.cfg }

// PipelineOf returns the pipeline a port is hard-wired to (§4.4: "an
// incoming packet on a given port must be processed by the pipeline this
// port is attached to").
func (a *ASIC) PipelineOf(port int) (int, error) {
	if port < 0 || port >= a.cfg.Ports {
		return 0, fmt.Errorf("asic: port %d outside [0,%d)", port, a.cfg.Ports)
	}
	return port / (a.cfg.Ports / a.cfg.Pipelines), nil
}

// PortsOf lists the ports attached to a pipeline.
func (a *ASIC) PortsOf(pipe int) ([]int, error) {
	if pipe < 0 || pipe >= a.cfg.Pipelines {
		return nil, fmt.Errorf("asic: pipeline %d outside [0,%d)", pipe, a.cfg.Pipelines)
	}
	per := a.cfg.Ports / a.cfg.Pipelines
	out := make([]int, per)
	for i := range out {
		out[i] = pipe*per + i
	}
	return out, nil
}

// SetPort powers a port's SerDes on or off.
func (a *ASIC) SetPort(port int, on bool) error {
	if port < 0 || port >= a.cfg.Ports {
		return fmt.Errorf("asic: port %d outside [0,%d)", port, a.cfg.Ports)
	}
	a.portOn[port] = on
	return nil
}

// PortOn reports a port's SerDes state.
func (a *ASIC) PortOn(port int) bool {
	return port >= 0 && port < a.cfg.Ports && a.portOn[port]
}

// SetPipeline powers a pipeline on or off (§4.4). Turning a pipeline off
// does not touch its ports: the caller decides whether traffic is
// redirected (circuit-switch indirection) or the ports go dark too.
func (a *ASIC) SetPipeline(pipe int, on bool) error {
	if pipe < 0 || pipe >= a.cfg.Pipelines {
		return fmt.Errorf("asic: pipeline %d outside [0,%d)", pipe, a.cfg.Pipelines)
	}
	a.pipeOn[pipe] = on
	return nil
}

// PipelineOn reports a pipeline's state.
func (a *ASIC) PipelineOn(pipe int) bool {
	return pipe >= 0 && pipe < a.cfg.Pipelines && a.pipeOn[pipe]
}

// SetPipelineFreq sets a pipeline's frequency in (0,1] (§4.3 rate
// adaptation). The pipeline must be on to have a meaningful frequency.
func (a *ASIC) SetPipelineFreq(pipe int, f float64) error {
	if pipe < 0 || pipe >= a.cfg.Pipelines {
		return fmt.Errorf("asic: pipeline %d outside [0,%d)", pipe, a.cfg.Pipelines)
	}
	if f <= 0 || f > 1 {
		return fmt.Errorf("asic: frequency %v outside (0,1]", f)
	}
	a.pipeFreq[pipe] = f
	return nil
}

// PipelineFreq returns a pipeline's frequency setting.
func (a *ASIC) PipelineFreq(pipe int) float64 {
	if pipe < 0 || pipe >= a.cfg.Pipelines {
		return 0
	}
	return a.pipeFreq[pipe]
}

// SetMemoryBank powers a memory bank on or off (§4.1: a route-reflector
// client needs a fraction of the FIB memory).
func (a *ASIC) SetMemoryBank(bank int, on bool) error {
	if bank < 0 || bank >= a.cfg.MemoryBanks {
		return fmt.Errorf("asic: bank %d outside [0,%d)", bank, a.cfg.MemoryBanks)
	}
	a.bankOn[bank] = on
	return nil
}

// MemoryBankOn reports a bank's state.
func (a *ASIC) MemoryBankOn(bank int) bool {
	return bank >= 0 && bank < a.cfg.MemoryBanks && a.bankOn[bank]
}

// SetL3 gates the L3 functionality of all pipelines (§4.1: "if the switch
// is only configured for L2 forwarding, it could automatically turn off
// all L3 functionality").
func (a *ASIC) SetL3(on bool) { a.l3 = on }

// L3On reports whether L3 stages are powered.
func (a *ASIC) L3On() bool { return a.l3 }

// Power computes the ASIC's current draw from its component states.
func (a *ASIC) Power() units.Power {
	max := float64(a.cfg.Max)
	sh := a.cfg.Shares

	perPort := max * sh.SerDes / float64(a.cfg.Ports)
	var p float64
	for _, on := range a.portOn {
		if on {
			p += perPort
		}
	}
	perPipe := max * sh.Pipeline / float64(a.cfg.Pipelines)
	static := a.cfg.PipelineStaticFraction
	for i, on := range a.pipeOn {
		if !on {
			continue
		}
		pipe := perPipe * (static + (1-static)*a.pipeFreq[i])
		if !a.l3 {
			pipe *= 1 - L3FractionOfPipeline
		}
		p += pipe
	}
	perBank := max * sh.Memory / float64(a.cfg.MemoryBanks)
	for _, on := range a.bankOn {
		if on {
			p += perBank
		}
	}
	p += max * sh.Control
	p += max * sh.Fixed
	return units.Power(p)
}

// MinPower returns the floor with every gateable component off and one
// pipeline at minimum frequency — the best any §4.1-style static
// optimization can reach without turning the box off entirely.
func (a *ASIC) MinPower() units.Power {
	max := float64(a.cfg.Max)
	sh := a.cfg.Shares
	return units.Power(max * (sh.Control + sh.Fixed))
}
