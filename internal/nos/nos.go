// Package nos is the user-facing piece of §4.1: a network-OS-style command
// shell that actually exposes the power knobs today's closed network
// operating systems hide. It wraps an ASIC model with `show`/`set`/`apply`
// commands — individual component gating for experts, and the predefined
// PM0–PM3 low-power modes (the "networking equivalent of C-states") for
// everyone else.
package nos

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netpowerprop/internal/asic"
	"netpowerprop/internal/powergate"
	"netpowerprop/internal/report"
	"netpowerprop/internal/units"
)

// Shell interprets power-knob commands against one ASIC.
type Shell struct {
	asic *asic.ASIC
	out  io.Writer
}

// NewShell wraps an ASIC. Output (command responses) goes to out.
func NewShell(a *asic.ASIC, out io.Writer) (*Shell, error) {
	if a == nil {
		return nil, fmt.Errorf("nos: nil ASIC")
	}
	if out == nil {
		return nil, fmt.Errorf("nos: nil output writer")
	}
	return &Shell{asic: a, out: out}, nil
}

// Exec runs one command line. Unknown or malformed commands return errors;
// state is only mutated on success.
func (s *Shell) Exec(line string) error {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	switch fields[0] {
	case "show":
		return s.execShow(fields[1:])
	case "set":
		return s.execSet(fields[1:])
	case "apply":
		return s.execApply(fields[1:])
	case "help":
		return s.printHelp()
	default:
		return fmt.Errorf("nos: unknown command %q (try help)", fields[0])
	}
}

// Run executes commands line by line until EOF. Errors are reported to the
// output and do not stop the session (interactive semantics); the first
// I/O error aborts.
func (s *Shell) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if err := s.Exec(sc.Text()); err != nil {
			if _, werr := fmt.Fprintf(s.out, "error: %v\n", err); werr != nil {
				return werr
			}
		}
	}
	return sc.Err()
}

func (s *Shell) printHelp() error {
	_, err := fmt.Fprint(s.out, `commands:
  show power                     current / min / max draw
  show pipelines|ports|memory    component states
  show modes                     PM0-PM3 mode ladder
  set port <n> up|down           gate one port's SerDes
  set pipeline <n> on|off        park or wake a pipeline
  set pipeline <n> freq <0-1>    scale a pipeline's clock
  set memory <n> on|off          gate a memory bank
  set l3 on|off                  gate L3 lookup stages
  apply mode <PM0-PM3>           enter a predefined low-power mode
                                 (deployment inferred from port states)
`)
	return err
}

func (s *Shell) execShow(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("nos: usage: show power|pipelines|ports|memory|modes")
	}
	cfg := s.asic.Config()
	switch args[0] {
	case "power":
		_, err := fmt.Fprintf(s.out, "power: %v (floor %v, max %v)\n",
			s.asic.Power(), s.asic.MinPower(), cfg.Max)
		return err
	case "pipelines":
		for p := 0; p < cfg.Pipelines; p++ {
			state := "off"
			if s.asic.PipelineOn(p) {
				state = fmt.Sprintf("on freq=%.2f", s.asic.PipelineFreq(p))
			}
			if _, err := fmt.Fprintf(s.out, "pipeline %d: %s\n", p, state); err != nil {
				return err
			}
		}
		return nil
	case "ports":
		up := 0
		for p := 0; p < cfg.Ports; p++ {
			if s.asic.PortOn(p) {
				up++
			}
		}
		_, err := fmt.Fprintf(s.out, "ports: %d/%d up\n", up, cfg.Ports)
		return err
	case "memory":
		on := 0
		for b := 0; b < cfg.MemoryBanks; b++ {
			if s.asic.MemoryBankOn(b) {
				on++
			}
		}
		_, err := fmt.Fprintf(s.out, "memory banks: %d/%d on, l3: %v\n", on, cfg.MemoryBanks, s.asic.L3On())
		return err
	case "modes":
		reports, err := powergate.Evaluate(cfg, s.deployment())
		if err != nil {
			return err
		}
		tb := report.Table{Headers: []string{"mode", "power", "savings", "wake"}}
		for _, r := range reports {
			tb.AddRow(r.Mode.Name, r.Power.String(), report.Percent(r.Savings),
				fmt.Sprintf("%gs", float64(r.Mode.WakeLatency)))
		}
		return tb.Write(s.out)
	default:
		return fmt.Errorf("nos: unknown show target %q", args[0])
	}
}

func (s *Shell) execSet(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("nos: usage: set port|pipeline|memory|l3 ...")
	}
	onOff := func(w string) (bool, error) {
		switch w {
		case "on", "up":
			return true, nil
		case "off", "down":
			return false, nil
		default:
			return false, fmt.Errorf("nos: want on/off, got %q", w)
		}
	}
	switch args[0] {
	case "port":
		if len(args) != 3 {
			return fmt.Errorf("nos: usage: set port <n> up|down")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("nos: bad port %q", args[1])
		}
		state, err := onOff(args[2])
		if err != nil {
			return err
		}
		if err := s.asic.SetPort(n, state); err != nil {
			return err
		}
	case "pipeline":
		if len(args) == 4 && args[2] == "freq" {
			n, err := strconv.Atoi(args[1])
			if err != nil {
				return fmt.Errorf("nos: bad pipeline %q", args[1])
			}
			f, err := strconv.ParseFloat(args[3], 64)
			if err != nil {
				return fmt.Errorf("nos: bad frequency %q", args[3])
			}
			if err := s.asic.SetPipelineFreq(n, f); err != nil {
				return err
			}
			break
		}
		if len(args) != 3 {
			return fmt.Errorf("nos: usage: set pipeline <n> on|off|freq <f>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("nos: bad pipeline %q", args[1])
		}
		state, err := onOff(args[2])
		if err != nil {
			return err
		}
		if err := s.asic.SetPipeline(n, state); err != nil {
			return err
		}
	case "memory":
		if len(args) != 3 {
			return fmt.Errorf("nos: usage: set memory <n> on|off")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("nos: bad bank %q", args[1])
		}
		state, err := onOff(args[2])
		if err != nil {
			return err
		}
		if err := s.asic.SetMemoryBank(n, state); err != nil {
			return err
		}
	case "l3":
		state, err := onOff(args[1])
		if err != nil {
			return err
		}
		s.asic.SetL3(state)
	default:
		return fmt.Errorf("nos: unknown set target %q", args[0])
	}
	_, err := fmt.Fprintf(s.out, "ok; power now %v\n", s.asic.Power())
	return err
}

// deployment infers the current deployment from shell state: used ports
// are the ones up; L3 and memory follow the current gating.
func (s *Shell) deployment() powergate.Deployment {
	cfg := s.asic.Config()
	var used []int
	for p := 0; p < cfg.Ports; p++ {
		if s.asic.PortOn(p) {
			used = append(used, p)
		}
	}
	on := 0
	for b := 0; b < cfg.MemoryBanks; b++ {
		if s.asic.MemoryBankOn(b) {
			on++
		}
	}
	return powergate.Deployment{
		UsedPorts:   used,
		NeedsL3:     s.asic.L3On(),
		FIBFraction: float64(on) / float64(cfg.MemoryBanks),
		WakeBudget:  units.Seconds(1),
	}
}

func (s *Shell) execApply(args []string) error {
	if len(args) != 2 || args[0] != "mode" {
		return fmt.Errorf("nos: usage: apply mode <PM0-PM3>")
	}
	for _, m := range powergate.Modes() {
		if m.Name == args[1] {
			if err := powergate.Apply(s.asic, s.deployment(), m); err != nil {
				return err
			}
			_, err := fmt.Fprintf(s.out, "mode %s applied; power now %v (wake %gs)\n",
				m.Name, s.asic.Power(), float64(m.WakeLatency))
			return err
		}
	}
	return fmt.Errorf("nos: unknown mode %q", args[1])
}
