// Command powerprop regenerates every table and figure of "It Is Time to
// Address Network Power Proportionality" (HotNets '25) from the analytical
// model, and runs custom what-if sweeps.
//
// Usage:
//
//	powerprop <subcommand> [flags]
//
// Subcommands:
//
//	fig1    workload scaling model (Fig. 1)
//	fig2    baseline power breakdown and efficiency (Fig. 2a/2b)
//	table3  power savings vs. proportionality and bandwidth (Table 3)
//	fig3    fixed-workload speedup under a power budget (Fig. 3)
//	fig4    fixed-comm-ratio speedup (Fig. 4)
//	cost    §3.2 annualized cost savings
//	sweep   custom proportionality sweep for one scenario
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"netpowerprop/internal/core"
	"netpowerprop/internal/device"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/report"
	"netpowerprop/internal/workload"
)

// query routes a request through the engine, so this CLI and cmd/serve
// are guaranteed to produce identical numbers.
func query(req engine.Request) (*engine.Result, error) {
	res, _, err := engine.New(engine.Options{}).Do(context.Background(), req)
	return res, err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "powerprop:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (fig1 fig2 table3 fig3 fig4 cost sweep sensitivity scaling report)")
	}
	switch args[0] {
	case "fig1":
		return cmdFig1(args[1:], w)
	case "fig2":
		return cmdFig2(args[1:], w)
	case "table3":
		return cmdTable3(args[1:], w)
	case "fig3":
		return cmdFig3(args[1:], w)
	case "fig4":
		return cmdFig4(args[1:], w)
	case "cost":
		return cmdCost(args[1:], w)
	case "sweep":
		return cmdSweep(args[1:], w)
	case "sensitivity":
		return cmdSensitivity(args[1:], w)
	case "scaling":
		return cmdScaling(args[1:], w)
	case "report":
		return cmdReport(args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// cmdReport emits the full reproduction as one Markdown document — every
// table and figure with paper references — suitable for artifact
// evaluation (redirect to a file).
func cmdReport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(w, "# Reproduction report — It Is Time to Address Network Power Proportionality")
	fmt.Fprintln(w)
	cl, err := core.New(core.Baseline())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Baseline pod: %d GPUs at %v, %.0f switches, network max %v.\n\n",
		cl.Config().GPUs, cl.Config().Bandwidth, cl.Design().Switches, cl.NetworkMaxPower())
	fmt.Fprintf(w, "- Network share of average power: **%s** (paper: 12%%)\n",
		report.Percent(cl.NetworkShare()))
	fmt.Fprintf(w, "- Network energy efficiency: **%s** (paper: 11%%)\n\n",
		report.Percent(cl.NetworkEfficiency()))

	// Table 3.
	grid, err := core.Table3()
	if err != nil {
		return err
	}
	t3 := report.Table{Title: "Table 3 — total-cluster power savings vs. a 10%-proportional network"}
	t3.Headers = []string{"bandwidth"}
	for _, p := range grid.Proportionalities {
		t3.Headers = append(t3.Headers, report.Percent(p))
	}
	for i, bw := range grid.Bandwidths {
		row := []string{bw.String()}
		for j := range grid.Proportionalities {
			row = append(row, report.Percent(grid.Cell(i, j).Savings))
		}
		t3.AddRow(row...)
	}
	if err := t3.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Fig. 3 crossovers.
	curves, err := core.Fig3(core.Baseline(), core.Table3Bandwidths(), core.FigProportionalities(), core.AvgBudget)
	if err != nil {
		return err
	}
	cross, err := core.BestBandwidth(curves)
	if err != nil {
		return err
	}
	cr := report.Table{
		Title:   "Fig. 3 — best bandwidth under the fixed power budget (crossovers)",
		Headers: []string{"proportionality", "best bandwidth", "speedup"},
	}
	prev := ""
	for _, c := range cross {
		if c.Best.String() == prev {
			continue
		}
		prev = c.Best.String()
		cr.AddRow(report.Percent(c.Proportionality), c.Best.String(), report.Percent(c.Speedup))
	}
	if err := cr.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Fig. 4 headline points.
	f4, err := core.Fig4(core.Baseline(), core.Table3Bandwidths(), []float64{0.25, 0.5, 0.75, 1}, 0.10, core.AvgBudget)
	if err != nil {
		return err
	}
	t4 := report.Table{
		Title:   "Fig. 4 — fixed 10% comm ratio: speedup vs. a zero-proportionality network",
		Headers: []string{"bandwidth", "25%", "50%", "75%", "100%"},
	}
	for _, c := range f4 {
		row := []string{c.Bandwidth.String()}
		for _, pt := range c.Points {
			row = append(row, report.Percent(pt.Speedup))
		}
		t4.AddRow(row...)
	}
	if err := t4.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// §3.2 cost.
	s32, err := core.Section32(0.50)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§3.2 worked example (400 G, 50%% proportionality): **%v** saved, **%s/yr** electricity, **%s/yr** cooling (paper: ~365 kW, ~$416k, ~$125k).\n",
		s32.SavedPower, report.Dollars(s32.ElectricityPerYear), report.Dollars(s32.CoolingPerYear))
	return nil
}

func cmdScaling(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpWhatIf, scenarioFields...)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := engine.ClusterConfig(*req)
	if err != nil {
		return err
	}
	pts, err := core.ScalingStudy(cfg, core.DefaultScalingSizes())
	if err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Cluster scaling — the network problem grows with the tree depth",
		Headers: []string{"GPUs", "stages", "switches/1k GPUs", "avg power", "net share", "net efficiency", "savings@85%"},
	}
	for _, pt := range pts {
		tb.AddRow(fmt.Sprintf("%d", pt.GPUs),
			fmt.Sprintf("%.3f", pt.Stages),
			fmt.Sprintf("%.1f", pt.SwitchesPerThousandGPUs),
			pt.AveragePower.String(),
			report.Percent(pt.NetworkShare),
			report.Percent(pt.NetworkEfficiency),
			report.Percent(pt.SavingsAtComputeParity))
	}
	if *csv {
		return tb.WriteCSV(w)
	}
	return tb.Write(w)
}

// sensitivitySweeps defines the perturbation grid per assumption.
var sensitivitySweeps = []struct {
	a      core.Assumption
	values []float64
	format string
}{
	{core.AssumeCommRatio, []float64{0.05, 0.10, 0.20, 0.40}, "%.2f"},
	{core.AssumeServerOverhead, []float64{50, 100, 200, 300}, "%.0f W"},
	{core.AssumeSwitchPower, []float64{500, 750, 1000, 1500}, "%.0f W"},
	{core.AssumeComputeProportionality, []float64{0.70, 0.85, 0.95}, "%.2f"},
	{core.AssumeNetworkProportionality, []float64{0.05, 0.10, 0.20}, "%.2f"},
}

func cmdSensitivity(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Sensitivity of the headline results to the paper's modeling assumptions",
		Headers: []string{"assumption", "value", "net share", "net efficiency", "savings@50%"},
	}
	for _, sweep := range sensitivitySweeps {
		pts, err := core.Sensitivity(sweep.a, sweep.values)
		if err != nil {
			return err
		}
		for _, pt := range pts {
			tb.AddRow(sweep.a.String(), fmt.Sprintf(sweep.format, pt.Value),
				report.Percent(pt.NetworkShare),
				report.Percent(pt.NetworkEfficiency),
				report.Percent(pt.SavingsAt50))
		}
	}
	if *csv {
		return tb.WriteCSV(w)
	}
	return tb.Write(w)
}

// scenarioFields are the engine request fields of the commands that size
// one cluster scenario, each a flag of the same name.
var scenarioFields = []string{"gpus", "bw", "ratio", "netprop", "compprop", "interp", "overlap"}

func cmdFig1(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb := report.Table{
		Title:   "Fig. 1 — workload execution time scales linearly with resources (comm ratio 20%)",
		Headers: []string{"scenario", "compute", "comm", "iteration", "comm ratio"},
	}
	for _, row := range workload.Fig1() {
		it := row.Iteration
		tb.AddRow(row.Label,
			fmt.Sprintf("%.2f", float64(it.Compute)),
			fmt.Sprintf("%.2f", float64(it.Comm)),
			fmt.Sprintf("%.2f", float64(it.Total())),
			report.Percent(it.CommRatio()))
	}
	return tb.Write(w)
}

func cmdFig2(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpWhatIf, scenarioFields...)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := engine.ClusterConfig(*req)
	if err != nil {
		return err
	}
	cl, err := core.New(cfg)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Fig. 2a — relative power by phase (%d GPUs, %v, net prop %s)",
			cfg.GPUs, cfg.Bandwidth, report.Percent(cfg.NetworkProportionality)),
		Headers: []string{"phase", "GPU&Server", "NICs", "Switches", "Transceiver", "Idle", "total"},
	}
	for _, bar := range cl.Fig2a() {
		tb.AddRow(bar.Phase.String(),
			report.Percent(bar.Fraction(device.ClassGPU)),
			report.Percent(bar.Fraction(device.ClassNIC)),
			report.Percent(bar.Fraction(device.ClassSwitch)),
			report.Percent(bar.Fraction(device.ClassTransceiver)),
			report.Percent(bar.IdleFraction()),
			bar.Total.String())
	}
	if *csv {
		if err := tb.WriteCSV(w); err != nil {
			return err
		}
	} else if err := tb.Write(w); err != nil {
		return err
	}

	f2b := cl.Fig2bData()
	tb2 := report.Table{
		Title:   "Fig. 2b — absolute power and energy efficiency",
		Headers: []string{"group", "computation", "average", "communication", "efficiency"},
	}
	tb2.AddRow("Compute",
		f2b.ComputePower[core.PhaseComputation].String(),
		f2b.ComputePower[core.PhaseAverage].String(),
		f2b.ComputePower[core.PhaseCommunication].String(),
		report.Percent(f2b.ComputeEfficiency))
	tb2.AddRow("Network",
		f2b.NetworkPower[core.PhaseComputation].String(),
		f2b.NetworkPower[core.PhaseAverage].String(),
		f2b.NetworkPower[core.PhaseCommunication].String(),
		report.Percent(f2b.NetworkEfficiency))
	fmt.Fprintln(w)
	if *csv {
		if err := tb2.WriteCSV(w); err != nil {
			return err
		}
	} else if err := tb2.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnetwork share of average power: %s (paper: 12%%)\n", report.Percent(cl.NetworkShare()))
	fmt.Fprintf(w, "network energy efficiency:      %s (paper: 11%%)\n", report.Percent(cl.NetworkEfficiency()))
	return nil
}

func cmdTable3(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpTable3, scenarioFields...)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := query(*req)
	if err != nil {
		return err
	}
	grid := res.Grid
	tb := report.Table{
		Title: fmt.Sprintf("Table 3 — total-cluster power savings vs. %s-proportional network (interp %s)",
			report.Percent(grid.RefProportionality), grid.Interp),
		Headers: []string{"bandwidth"},
	}
	for _, p := range grid.Proportionalities {
		tb.Headers = append(tb.Headers, report.Percent(p))
	}
	for i, bw := range grid.Bandwidths {
		row := []string{bw.Label}
		for j := range grid.Proportionalities {
			row = append(row, report.Percent(grid.Cells[i][j].Savings))
		}
		tb.AddRow(row...)
	}
	if *csv {
		return tb.WriteCSV(w)
	}
	return tb.Write(w)
}

func speedupOutput(w io.Writer, title string, curves []engine.Curve, csv bool) error {
	tb := report.Table{Title: title, Headers: []string{"bandwidth"}}
	if len(curves) == 0 {
		return fmt.Errorf("no curves")
	}
	for _, pt := range curves[0].Points {
		tb.Headers = append(tb.Headers, report.Percent(pt.Proportionality))
	}
	var chart report.Chart
	chart.Title = title
	chart.XLabel = "proportionality"
	chart.YLabel = "speedup %"
	for _, c := range curves {
		row := []string{c.Bandwidth.Label}
		var xs, ys []float64
		for _, pt := range c.Points {
			row = append(row, report.Percent(pt.Speedup))
			xs = append(xs, pt.Proportionality)
			ys = append(ys, pt.Speedup*100)
		}
		tb.AddRow(row...)
		chart.Series = append(chart.Series, report.Series{Name: c.Bandwidth.Label, X: xs, Y: ys})
	}
	if csv {
		return tb.WriteCSV(w)
	}
	if err := tb.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return chart.Write(w)
}

// coarseProps is the fast 5-point proportionality grid behind -coarse.
var coarseProps = []float64{0, 0.25, 0.5, 0.75, 1}

func cmdFig3(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpFig3, append(scenarioFields, "budget")...)
	csv := fs.Bool("csv", false, "emit CSV")
	coarse := fs.Bool("coarse", false, "coarse proportionality grid (faster)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coarse {
		req.Proportionalities = coarseProps
	}
	res, err := query(*req)
	if err != nil {
		return err
	}
	if err := speedupOutput(w,
		fmt.Sprintf("Fig. 3 — fixed workload: speedup vs. the baseline under a fixed %s-power budget", res.Request.Budget),
		res.Curves, *csv); err != nil {
		return err
	}
	if *csv {
		return nil
	}
	fmt.Fprintln(w)
	tb := report.Table{
		Title:   "best bandwidth by proportionality (the paper's crossover structure)",
		Headers: []string{"proportionality", "best bandwidth", "speedup"},
	}
	prev := ""
	for _, c := range res.Crossovers {
		name := c.Best.Label
		if name == prev {
			continue // only print rows where the winner changes
		}
		prev = name
		tb.AddRow(report.Percent(c.Proportionality), name, report.Percent(c.Speedup))
	}
	return tb.Write(w)
}

func cmdFig4(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpFig4, append(scenarioFields, "budget", "fixedratio")...)
	csv := fs.Bool("csv", false, "emit CSV")
	coarse := fs.Bool("coarse", false, "coarse proportionality grid (faster)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coarse {
		req.Proportionalities = coarseProps
	}
	res, err := query(*req)
	if err != nil {
		return err
	}
	return speedupOutput(w,
		fmt.Sprintf("Fig. 4 — fixed %s comm ratio: speedup vs. a zero-proportionality network (%s budget)",
			report.Percent(res.Request.FixedCommRatio), res.Request.Budget),
		res.Curves, *csv)
}

func cmdCost(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cost", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpCost, "prop", "price", "cooling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := query(*req)
	if err != nil {
		return err
	}
	c := res.Cost
	fmt.Fprintf(w, "§3.2 — baseline 400G cluster, network proportionality %s -> %s\n\n",
		report.Percent(c.RefProportionality), report.Percent(c.Proportionality))
	fmt.Fprintf(w, "average power saved:    %s  (paper: ~365 kW at 50%%)\n", c.SavedPower.Label)
	fmt.Fprintf(w, "electricity per year:   %s  (paper: ~$416k)\n", report.Dollars(c.ElectricityPerYear))
	fmt.Fprintf(w, "cooling per year:       %s  (paper: ~$125k)\n", report.Dollars(c.CoolingPerYear))
	fmt.Fprintf(w, "total per year:         %s\n", report.Dollars(c.TotalPerYear))
	return nil
}

func cmdSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	req := engine.Flags(fs, engine.OpSweep, append(scenarioFields, "steps")...)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := query(*req)
	if err != nil {
		return err
	}
	tb := report.Table{
		Title: fmt.Sprintf("Proportionality sweep — %d GPUs at %s (ratio %s)",
			res.Request.GPUs, res.Request.Bandwidth, report.Percent(res.Request.CommRatio)),
		Headers: []string{"prop", "avg power", "peak power", "net share", "net efficiency", "savings"},
	}
	for _, pt := range res.Sweep {
		tb.AddRow(report.Percent(pt.Proportionality), pt.AveragePower.Label, pt.PeakPower.Label,
			report.Percent(pt.NetworkShare), report.Percent(pt.NetworkEfficiency),
			report.Percent(pt.Savings))
	}
	if *csv {
		return tb.WriteCSV(w)
	}
	return tb.Write(w)
}
