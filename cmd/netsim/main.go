// Command netsim runs the §4 mechanism simulations: power gating modes
// (§4.1), OCS topology tailoring (§4.2), rate adaptation (§4.3), pipeline
// parking (§4.4), the 802.3az EEE baseline, the network-aware job
// scheduler, and a flow-level fabric simulation.
//
// Usage:
//
//	netsim [-job -jobdir DIR] <scenario> [flags]
//	netsim -resume -jobdir DIR
//
// Scenarios: gating, ocs, rateadapt, parking, eee, ratelink, scheduler,
// fabric, chiplet, backbone, topologies
//
// The single-table scenarios route through internal/engine — the same
// registry cmd/serve exposes at /v1/scenarios/<name> — so CLI and server
// produce identical numbers. ocs, fabric, and backbone have multi-section
// output and drive their simulators directly (and cannot run as jobs).
//
// With -job, the scenario runs as a durable job: every finished table row
// is journaled to a per-job JSONL write-ahead log under -jobdir, so a
// killed run loses nothing. Rerunning the same command — or running
// netsim -resume -jobdir DIR — continues from the last checkpointed row
// and prints a table byte-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"netpowerprop/internal/backbone"
	"netpowerprop/internal/cosim"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/jobs"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/obs"
	"netpowerprop/internal/ocs"
	"netpowerprop/internal/report"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

// app carries the engine and durable-job options shared by every scenario
// command. models are the co-simulation hooks (nil: in-process); the
// engine attaches them to every scenario simulation.
type app struct {
	eng      *engine.Engine
	models   *netsim.Models
	job      bool
	jobdir   string
	killrow  int
	loglevel string
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(w)
	job := fs.Bool("job", false, "run the scenario as a durable resumable job (requires -jobdir)")
	resume := fs.Bool("resume", false, "resume interrupted jobs from -jobdir and print their tables")
	jobdir := fs.String("jobdir", "", "directory for durable job journals")
	killrow := fs.Int("killrow", -1, "(testing) exit the process dead after checkpointing this row")
	loglevel := fs.String("loglevel", "warn", "structured log level for durable jobs (debug, info, warn, error)")
	cosimCmd := fs.String("cosim", "", "external co-sim model command (e.g. \"./cosim-stub\"); simulations delegate latency/power to it")
	cosimRecord := fs.String("cosim-record", "", "record co-sim model responses into this JSONL cassette")
	cosimReplay := fs.String("cosim-replay", "", "replay co-sim responses from a cassette instead of spawning a model")
	cosimTimeout := fs.Duration("cosim-timeout", 2*time.Second, "per-call co-sim timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := &app{job: *job, jobdir: *jobdir, killrow: *killrow, loglevel: *loglevel}
	cfg := cosim.Config{Command: *cosimCmd, Record: *cosimRecord, Replay: *cosimReplay, Timeout: *cosimTimeout}
	if cfg.Enabled() {
		binding, err := cosim.Open(cfg, nil)
		if err != nil {
			return err
		}
		defer func() {
			if err := binding.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "netsim: cosim close: %v\n", err)
			}
		}()
		a.models = binding.Models()
	}
	a.eng = engine.New(engine.Options{Models: a.models})
	args = fs.Args()
	if *resume {
		if len(args) != 0 {
			return fmt.Errorf("-resume takes no scenario; it continues whatever -jobdir holds")
		}
		return a.cmdResume(w)
	}
	if len(args) == 0 {
		return fmt.Errorf("missing scenario (gating ocs rateadapt parking eee ratelink scheduler fabric chiplet backbone summary faults topologies)")
	}
	switch args[0] {
	case "ocs", "fabric", "backbone":
		if a.job {
			return fmt.Errorf("%s has multi-section output and cannot run as a job", args[0])
		}
	}
	switch args[0] {
	case "gating":
		return a.cmdGating(args[1:], w)
	case "faults":
		return a.cmdFaults(args[1:], w)
	case "ocs":
		return cmdOCS(args[1:], w)
	case "rateadapt":
		return a.cmdRateAdapt(args[1:], w)
	case "parking":
		return a.cmdParking(args[1:], w)
	case "eee":
		return a.cmdEEE(args[1:], w)
	case "ratelink":
		return a.cmdRateLink(args[1:], w)
	case "scheduler":
		return a.cmdScheduler(args[1:], w)
	case "fabric":
		return a.cmdFabric(args[1:], w)
	case "chiplet":
		return a.cmdChiplet(args[1:], w)
	case "backbone":
		return cmdBackbone(args[1:], w)
	case "summary":
		return a.cmdSummary(args[1:], w)
	case "topologies":
		return a.cmdTopologies(args[1:], w)
	default:
		return fmt.Errorf("unknown scenario %q", args[0])
	}
}

// runScenario routes a §4 scenario through the shared engine and renders
// the resulting table exactly as the direct simulation used to print it.
// With -job the same request runs as a durable journaled job instead; the
// rendered bytes are identical either way.
func (a *app) runScenario(w io.Writer, name, bw string, params map[string]float64) error {
	req := engine.Request{Op: engine.OpScenario, Scenario: name, Bandwidth: bw, Params: params}
	if a.job {
		return a.runJob(w, req)
	}
	res, _, err := a.eng.Do(context.Background(), req)
	if err != nil {
		return err
	}
	return renderTable(w, res.Table)
}

// openJobs opens the durable job store under -jobdir, replaying any
// journals already there. The -killrow hook exits the process dead right
// after the given row is checkpointed — the chaos lever CI uses to prove
// kill-and-resume recovery end to end.
func (a *app) openJobs() (*jobs.Manager, error) {
	if a.jobdir == "" {
		return nil, fmt.Errorf("durable jobs need -jobdir (e.g. netsim -job -jobdir jobs faults)")
	}
	level, err := obs.ParseLevel(a.loglevel)
	if err != nil {
		return nil, err
	}
	opts := jobs.Options{
		Dir:    a.jobdir,
		Exec:   a.eng,
		Logger: obs.New(os.Stderr, level).With("component", "jobs"),
	}
	if a.killrow >= 0 {
		kill := a.killrow
		opts.OnRowCheckpoint = func(id string, row int) error {
			if row == kill {
				fmt.Fprintf(os.Stderr, "netsim: killing process after row %d of job %s\n", row, id)
				os.Exit(3)
			}
			return nil
		}
	}
	return jobs.Open(opts)
}

// closeJobs drains the manager with a bounded deadline.
func closeJobs(m *jobs.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: job drain: %v\n", err)
	}
}

// runJob submits the request as a durable job (idempotently: rerunning
// the identical command resumes or reprints it) and renders the result.
func (a *app) runJob(w io.Writer, req engine.Request) error {
	m, err := a.openJobs()
	if err != nil {
		return err
	}
	defer closeJobs(m)
	snap, created, err := m.Submit(context.Background(), req)
	if err != nil {
		return err
	}
	if created {
		fmt.Fprintf(os.Stderr, "netsim: job %s started (%d rows, journal %s)\n",
			snap.ID, snap.Rows, filepath.Join(a.jobdir, snap.ID+".jsonl"))
	} else {
		fmt.Fprintf(os.Stderr, "netsim: job %s found %s with %d/%d rows checkpointed\n",
			snap.ID, snap.State, snap.RowsDone, snap.Rows)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		return err
	}
	return renderJob(w, final)
}

// cmdResume continues every interrupted job in -jobdir from its last
// checkpointed row and prints each recovered table — byte-identical to
// what the uninterrupted run would have printed.
func (a *app) cmdResume(w io.Writer) error {
	m, err := a.openJobs()
	if err != nil {
		return err
	}
	defer closeJobs(m)
	var ids []string
	for _, s := range m.List() {
		if s.State == jobs.StateInterrupted {
			ids = append(ids, s.ID)
		}
	}
	m.ResumeAll()
	fmt.Fprintf(os.Stderr, "netsim: resuming %d interrupted job(s) from %s\n", len(ids), a.jobdir)
	var firstErr error
	for _, id := range ids {
		final, err := m.Wait(context.Background(), id)
		if err != nil {
			return err
		}
		if err := renderJob(w, final); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// renderJob prints a finished job's table (scenario jobs always carry
// one; anything else is dumped as JSON). A degraded job still renders its
// successful rows, then reports the failed ones as an error.
func renderJob(w io.Writer, s *jobs.Snapshot) error {
	switch s.State {
	case jobs.StateDone, jobs.StateDegraded:
	default:
		return fmt.Errorf("job %s ended %s", s.ID, s.State)
	}
	if s.Result == nil {
		return fmt.Errorf("job %s finished without a result", s.ID)
	}
	if s.Result.Table != nil {
		if err := renderTable(w, s.Result.Table); err != nil {
			return err
		}
	} else {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Result); err != nil {
			return err
		}
	}
	if s.State == jobs.StateDegraded {
		for _, re := range s.RowErrors {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", re)
		}
		return fmt.Errorf("job %s degraded: %d of %d rows failed after retries", s.ID, s.RowsError, s.Rows)
	}
	return nil
}

// renderTable prints an engine table followed by its note lines.
func renderTable(w io.Writer, t *engine.Table) error {
	tb := report.Table{Title: t.Title, Headers: t.Headers}
	for _, row := range t.Rows {
		tb.AddRow(row...)
	}
	if err := tb.Write(w); err != nil {
		return err
	}
	if len(t.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
	}
	return nil
}

// cmdSummary closes the loop between §4 and §3: each mechanism's simulated
// switch-level savings are converted into an effective power
// proportionality, which the §3 cluster model then prices at
// baseline-cluster scale.
func (a *app) cmdSummary(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	ratio := fs.Float64("ratio", 0.1, "communication ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "summary", "", map[string]float64{"ratio": *ratio})
}

// cmdTopologies runs the topology-zoo comparison: every registered
// internal/topo generator sized to the same host count, measured on one
// offered-load sweep plus a shared seeded fault trace.
func (a *app) cmdTopologies(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("topologies", flag.ContinueOnError)
	hosts := fs.Int("hosts", 24, "host count every topology is sized for")
	speed := fs.String("speed", "100G", "uniform link speed")
	iters := fs.Int("iters", 2, "training iterations to simulate")
	seed := fs.Uint64("seed", 1, "fault trace seed")
	flaps := fs.Int("flaps", 4, "transient link outages in the fault trace")
	mttr := fs.Float64("mttr", 0.3, "mean link repair time (s)")
	perm := fs.Int("perm", 1, "permanent link failures in the fault trace")
	lowload := fs.Float64("lowload", 0.1, "active host fraction of the low-load phase")
	level := fs.Float64("level", 0.9, "per-host offered load during bursts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "topologies", *speed, map[string]float64{
		"hosts": float64(*hosts), "iters": float64(*iters), "seed": float64(*seed),
		"flaps": float64(*flaps), "mttr": *mttr, "perm": float64(*perm),
		"lowload": *lowload, "level": *level,
	})
}

func cmdBackbone(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("backbone", flag.ContinueOnError)
	routers := fs.Int("routers", 12, "backbone routers (ring + two chords)")
	trough := fs.Float64("trough", 0.05, "night-time utilization")
	peak := fs.Float64("peak", 0.6, "day-time peak utilization")
	sleepBelow := fs.Float64("sleep", 0.3, "sleep links below this utilization")
	cap := fs.Float64("cap", 0.85, "post-reroute utilization cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := backbone.Ring(*routers, 400*units.Gbps, 40*units.Watt, 300*units.Watt, *trough, *peak)
	if err != nil {
		return err
	}
	// Two chords give the sleeping optimizer redundancy to work with.
	day := units.Seconds(86400)
	for _, chord := range [][2]int{{0, *routers / 2}, {*routers / 4, 3 * *routers / 4}} {
		prof, err := traffic.Diurnal(*trough, *peak, day)
		if err != nil {
			return err
		}
		if _, err := net.AddLink(chord[0], chord[1], 400*units.Gbps, 40*units.Watt, prof); err != nil {
			return err
		}
	}
	res, err := net.SimulateDay(900, *sleepBelow, *cap)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§3.4 — ISP backbone link sleeping (%d routers, %d links, diurnal %s..%s)\n\n",
		*routers, len(net.Links()), report.Percent(*trough), report.Percent(*peak))
	fmt.Fprintf(w, "energy, all links up:   %v\n", res.Baseline)
	fmt.Fprintf(w, "energy, link sleeping:  %v\n", res.Energy)
	fmt.Fprintf(w, "savings:                %s\n", report.Percent(res.Savings))
	fmt.Fprintf(w, "links asleep (mean):    %.2f of %d\n", res.MeanAsleep, len(net.Links()))
	fmt.Fprintf(w, "max reroute util:       %s (cap %s)\n", report.Percent(res.MaxUtilization), report.Percent(*cap))
	fmt.Fprintln(w, "\nconstraints honored: connectivity preserved (no bridge sleeps) and")
	fmt.Fprintln(w, "rerouted traffic kept under the utilization cap — §3.4's point that ISP")
	fmt.Fprintln(w, "links are underutilized rather than unused.")
	return nil
}

func (a *app) cmdGating(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gating", flag.ContinueOnError)
	usedPorts := fs.Int("ports", 64, "ports in use (of 128)")
	l3 := fs.Bool("l3", false, "deployment needs L3 routing")
	fib := fs.Float64("fib", 0.25, "fraction of FIB memory needed")
	wake := fs.Float64("wake", 1.0, "wake latency budget (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l3v := 0.0
	if *l3 {
		l3v = 1
	}
	return a.runScenario(w, "gating", "", map[string]float64{
		"ports": float64(*usedPorts), "l3": l3v, "fib": *fib, "wake": *wake,
	})
}

// cmdFaults sweeps failure rate × core gating level on the flow-level
// fabric simulator under a seeded fault trace, comparing job slowdown and
// recovery time for a gated vs. fully-powered fat tree.
func (a *app) cmdFaults(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	radix := fs.Int("radix", 4, "fat-tree radix k")
	iters := fs.Int("iters", 4, "training iterations to simulate")
	seed := fs.Uint64("seed", 1, "fault trace seed")
	flaps := fs.Int("flaps", 6, "base transient link outages (scaled by the sweep)")
	mttr := fs.Float64("mttr", 0.3, "mean link repair time (s)")
	stuckProb := fs.Float64("stuckprob", 0.25, "probability a link wake misses its deadline")
	stuckExtra := fs.Float64("stuckextra", 0.5, "mean extra latency of a stuck wake (s)")
	reconfig := fs.Float64("reconfig", 0.2, "nominal OCS reconfiguration latency (s)")
	slowProb := fs.Float64("slowprob", 0.25, "probability a reconfiguration is slow")
	failProb := fs.Float64("failprob", 0.1, "probability a reconfiguration attempt fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "faults", "", map[string]float64{
		"radix": float64(*radix), "iters": float64(*iters), "seed": float64(*seed),
		"flaps": float64(*flaps), "mttr": *mttr,
		"stuckprob": *stuckProb, "stuckextra": *stuckExtra,
		"reconfig": *reconfig, "slowprob": *slowProb, "failprob": *failProb,
	})
}

func cmdOCS(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ocs", flag.ContinueOnError)
	radix := fs.Int("radix", 8, "fabric switch radix k")
	hosts := fs.Int("hosts", 16, "job host count")
	pattern := fs.String("pattern", "ring", "traffic pattern (ring|alltoall|neighbor|hierarchical)")
	group := fs.Int("group", 4, "group size for the hierarchical pattern")
	days := fs.Float64("days", 1, "job duration in days")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := ocs.ThreeTierFabric(*radix, 400*units.Gbps)
	if err != nil {
		return err
	}
	var pat traffic.Pattern
	switch *pattern {
	case "ring":
		pat = traffic.Ring
	case "alltoall":
		pat = traffic.AllToAll
	case "neighbor":
		pat = traffic.Neighbor
	case "hierarchical":
		pat = traffic.Hierarchical
	default:
		return fmt.Errorf("unknown pattern %q", *pattern)
	}
	ids := make([]int, *hosts)
	for i := range ids {
		ids[i] = i
	}
	job := traffic.Job{ID: 1, Hosts: ids, Period: 10, CommRatio: 0.1,
		Rate: 100 * units.Gbps, Pattern: pat, GroupSize: *group}
	m, err := job.Matrix()
	if err != nil {
		return err
	}
	plan, err := ocs.Tailor(f, m)
	if err != nil {
		return err
	}
	params := ocs.DefaultCompareParams()
	params.JobDuration = units.Seconds(*days * 86400)
	cmp, err := ocs.Compare(plan, params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§4.2 — OCS topology tailoring (k=%d fabric, %d-host %s job)\n\n", *radix, *hosts, pat)
	fmt.Fprintf(w, "full fat tree switches:   %d\n", plan.TotalSwitches())
	fmt.Fprintf(w, "tailored active switches: %d (edge %d, agg %d, core %d)\n",
		plan.ActiveSwitches(), plan.EdgeActive, plan.AggActive, plan.CoreActive)
	fmt.Fprintf(w, "switches powered off:     %d\n", plan.OffSwitches())
	fmt.Fprintf(w, "inter-edge demand:        %v (inter-pod %v)\n", plan.InterEdgeDemand, plan.InterPodDemand)
	fmt.Fprintf(w, "network energy, full:     %v\n", cmp.FullEnergy)
	fmt.Fprintf(w, "network energy, tailored: %v\n", cmp.TailoredEnergy)
	fmt.Fprintf(w, "savings:                  %s\n", report.Percent(cmp.Savings))
	fmt.Fprintf(w, "reconfig overhead:        %.2g of job time\n", cmp.ReconfigOverhead)

	curve, err := ocs.StandbyCurve(ocs.DefaultStandbyParams(), plan.ActiveSwitches())
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "\nstandby pool trade-off (reaction to a pattern change needing the active set again)",
		Headers: []string{"standby pool", "extra power", "reaction"},
	}
	for _, pt := range curve {
		tb.AddRow(fmt.Sprintf("%d", pt.Pool), pt.ExtraPower.String(), fmt.Sprintf("%gs", float64(pt.Reaction)))
	}
	return tb.Write(w)
}

func (a *app) cmdRateAdapt(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rateadapt", flag.ContinueOnError)
	busy := fs.Int("busy", 1, "pipelines carrying traffic (of 4)")
	ratio := fs.Float64("ratio", 0.2, "communication ratio of the periodic load")
	level := fs.Float64("level", 0.8, "utilization during bursts")
	samples := fs.Int("samples", 400, "trace samples")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "rateadapt", "", map[string]float64{
		"busy": float64(*busy), "ratio": *ratio, "level": *level, "samples": float64(*samples),
	})
}

func (a *app) cmdParking(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("parking", flag.ContinueOnError)
	ratio := fs.Float64("ratio", 0.2, "communication ratio")
	level := fs.Float64("level", 0.5, "utilization during bursts")
	period := fs.Float64("period", 2, "iteration period (s)")
	samples := fs.Int("samples", 800, "trace samples (50 ms each)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "parking", "", map[string]float64{
		"ratio": *ratio, "level": *level, "period": *period, "samples": float64(*samples),
	})
}

func (a *app) cmdEEE(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("eee", flag.ContinueOnError)
	speed := fs.String("speed", "10G", "link speed")
	active := fs.Float64("active", 10, "PHY active power (W)")
	horizon := fs.Float64("horizon", 0.01, "simulated span (s)")
	seed := fs.Int64("seed", 1, "arrival seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "eee", *speed, map[string]float64{
		"active": *active, "horizon": *horizon, "seed": float64(*seed),
	})
}

func (a *app) cmdRateLink(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ratelink", flag.ContinueOnError)
	speed := fs.String("speed", "10G", "link line rate")
	active := fs.Float64("active", 10, "PHY full-rate power (W)")
	horizon := fs.Float64("horizon", 0.01, "simulated span (s)")
	seed := fs.Int64("seed", 1, "arrival seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "ratelink", *speed, map[string]float64{
		"active": *active, "horizon": *horizon, "seed": float64(*seed),
	})
}

func (a *app) cmdChiplet(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("chiplet", flag.ContinueOnError)
	ratio := fs.Float64("ratio", 0.1, "communication ratio of the ML load")
	level := fs.Float64("level", 0.8, "utilization during bursts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "chiplet", "", map[string]float64{"ratio": *ratio, "level": *level})
}

func (a *app) cmdScheduler(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scheduler", flag.ContinueOnError)
	radix := fs.Int("radix", 8, "fabric switch radix k")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return a.runScenario(w, "scheduler", "", map[string]float64{"radix": float64(*radix)})
}

func (a *app) cmdFabric(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fabric", flag.ContinueOnError)
	radix := fs.Int("radix", 4, "fat-tree radix k")
	tiers := fs.Int("tiers", 3, "2 or 3 tiers")
	iters := fs.Int("iters", 3, "training iterations to simulate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var top *fattree.Topology
	var err error
	switch *tiers {
	case 2:
		top, err = fattree.BuildTwoTier(*radix, 100*units.Gbps)
	case 3:
		top, err = fattree.BuildThreeTier(*radix, 100*units.Gbps)
	default:
		return fmt.Errorf("tiers must be 2 or 3")
	}
	if err != nil {
		return err
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.1,
		Rate: 50 * units.Gbps, Pattern: traffic.Ring}
	flows, err := job.Flows(*iters)
	if err != nil {
		return err
	}
	s := netsim.New(top)
	s.Models = a.models
	res, err := s.Run(flows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flow-level fabric simulation — k=%d %d-tier fat tree, %d hosts, ring job, %d iterations\n\n",
		*radix, *tiers, len(top.Hosts()), *iters)
	var delivered float64
	for _, f := range res.Flows {
		delivered += f.DeliveredBits
	}
	fmt.Fprintf(w, "flows: %d, delivered: %.3g bits over %vs\n", len(res.Flows), delivered, float64(res.Horizon))
	tb := report.Table{
		Title:   "\nbaseline network energy under different proportionality",
		Headers: []string{"proportionality", "switch energy", "transceiver energy", "total"},
	}
	for _, prop := range []float64{0.1, 0.5, 0.9} {
		rep, err := s.Energy(res, prop, netsim.TwoState)
		if err != nil {
			return err
		}
		tb.AddRow(report.Percent(prop), rep.SwitchEnergy.String(), rep.TransceiverEnergy.String(), rep.Total().String())
	}
	return tb.Write(w)
}
