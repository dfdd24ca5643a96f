package main

import (
	"os"
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func runErr(t *testing.T, args ...string) {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err == nil {
		t.Fatalf("run(%v) expected error, got:\n%s", args, sb.String())
	}
}

func TestNoSubcommand(t *testing.T) {
	runErr(t)
	runErr(t, "bogus")
}

func TestFig1(t *testing.T) {
	out := runOK(t, "fig1")
	for _, want := range []string{"Fig. 1", "baseline", "2x GPUs", "0.5x BW", "20.0%", "33.3%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2(t *testing.T) {
	out := runOK(t, "fig2")
	for _, want := range []string{"Fig. 2a", "Fig. 2b", "GPU&Server", "12.0%", "11.0%", "7.68 MW"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
	// CSV mode emits comma-separated rows.
	csv := runOK(t, "fig2", "-csv")
	if !strings.Contains(csv, "phase,GPU&Server") {
		t.Errorf("fig2 -csv output not CSV:\n%s", csv)
	}
}

func TestFig2CustomScenario(t *testing.T) {
	out := runOK(t, "fig2", "-gpus", "4096", "-bw", "800G", "-ratio", "0.2", "-netprop", "0.5")
	if !strings.Contains(out, "4096 GPUs") || !strings.Contains(out, "800 Gbps") {
		t.Errorf("custom scenario not reflected:\n%s", out)
	}
}

// TestFig2BadFlags checks that every command sizing a cluster scenario
// refuses the same bad flags with the same error, whether it reaches the
// engine through an op or through ClusterConfig. An explicit zero that
// Normalize would read as "use the default" is refused, not replaced.
func TestFig2BadFlags(t *testing.T) {
	type badFlag struct {
		args []string
		want string
	}
	common := []badFlag{
		{[]string{"-bw", "nonsense"}, "parse bandwidth"},
		{[]string{"-ratio", "0"}, "engine: ratio 0 outside (0,1)"},
		{[]string{"-ratio", "-0"}, "engine: ratio 0 outside (0,1)"},
		{[]string{"-ratio", "1"}, "engine: ratio 1 outside (0,1)"},
		{[]string{"-interp", "bogus"}, "unknown interpolation mode"},
		{[]string{"-gpus", "0"}, "engine: GPU count 0 must be positive"},
		{[]string{"-gpus", "-2"}, "engine: GPU count -2 must be positive"},
		{[]string{"-netprop", "2"}, "engine: network proportionality 2 outside [0,1]"},
		{[]string{"-compprop", "-1"}, "engine: compute proportionality -1 outside [0,1]"},
		{[]string{"-overlap", "1"}, "engine: overlap 1 outside [0,1)"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	}
	own := map[string][]badFlag{
		"fig4": {{[]string{"-fixedratio", "0"}, "engine: fixed comm ratio 0 outside (0,1)"}},
		"sweep": {
			{[]string{"-steps", "0"}, "engine: steps 0 must be positive"},
			{[]string{"-steps", "9999999999"}, "engine: steps 9999999999 above the limit of 100000"},
		},
	}
	for _, cmd := range []string{"fig2", "table3", "sweep", "fig4", "scaling"} {
		for _, tc := range append(own[cmd], common...) {
			args := append([]string{cmd}, tc.args...)
			var sb strings.Builder
			err := run(args, &sb)
			if err == nil {
				t.Errorf("run(%v) succeeded, want an error", args)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %q, want it to contain %q", args, err, tc.want)
			}
		}
	}
}

// TestNonFiniteFlags checks that every command sizing a cluster scenario
// refuses NaN and ±Inf in its float flags with the engine's error, rather
// than printing a table of NaN%.
func TestNonFiniteFlags(t *testing.T) {
	names := map[string]string{
		"ratio": "ratio", "netprop": "network proportionality",
		"compprop": "compute proportionality", "overlap": "overlap",
	}
	for _, cmd := range []string{"fig2", "scaling", "table3", "sweep", "fig3", "fig4"} {
		for flag, name := range names {
			for _, v := range []string{"NaN", "Inf", "-Inf"} {
				args := []string{cmd, "-" + flag, v}
				var sb strings.Builder
				err := run(args, &sb)
				if err == nil || !strings.Contains(err.Error(), "engine: "+name+" ") ||
					!strings.Contains(err.Error(), " is not a finite number") {
					t.Errorf("run(%v) = %v, want the engine's %q is not a finite number error", args, err, name)
				}
			}
		}
	}
}

func TestTable3(t *testing.T) {
	out := runOK(t, "table3")
	for _, want := range []string{"Table 3", "100 Gbps", "1.6 Tbps", "10.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q:\n%s", want, out)
		}
	}
	// Per-host ablation still works and flags itself.
	ph := runOK(t, "table3", "-interp", "perhost")
	if !strings.Contains(ph, "perhost") {
		t.Errorf("perhost ablation not labeled:\n%s", ph)
	}
	csv := runOK(t, "table3", "-csv")
	if !strings.Contains(csv, "bandwidth,10.0%") {
		t.Errorf("table3 CSV malformed:\n%s", csv)
	}
}

// TestTable3Golden pins the full default table3 output against a checked-in
// snapshot, so any model drift shows up as a reviewable diff. Regenerate
// with: go run ./cmd/powerprop table3 > cmd/powerprop/testdata/table3.golden
func TestTable3Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/table3.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := runOK(t, "table3")
	if got != string(want) {
		t.Errorf("table3 output drifted from golden snapshot:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// goldenRuns lists the runs TestGoldens pins: every command at its
// defaults, plus one non-default run of each command that builds its
// scenario itself rather than through an engine op.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"fig1", []string{"fig1"}},
	{"fig2", []string{"fig2"}},
	{"fig2-custom", []string{"fig2", "-gpus", "4096", "-bw", "800G", "-ratio", "0.2", "-netprop", "0.5",
		"-compprop", "0.9", "-overlap", "0.3", "-interp", "perhost"}},
	{"fig3", []string{"fig3"}},
	{"fig4", []string{"fig4"}},
	{"cost", []string{"cost"}},
	{"sweep", []string{"sweep"}},
	{"sensitivity", []string{"sensitivity"}},
	{"scaling", []string{"scaling"}},
	{"scaling-custom", []string{"scaling", "-bw", "200G", "-ratio", "0.3", "-netprop", "0.25",
		"-compprop", "0.7", "-overlap", "0.5", "-interp", "perhost"}},
	{"report", []string{"report"}},
}

// TestGoldens pins the full output of each goldenRuns entry against
// testdata/<name>.golden. Regenerate one with, for example:
// go run ./cmd/powerprop fig2 > cmd/powerprop/testdata/fig2.golden
func TestGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + g.name + ".golden")
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got := runOK(t, g.args...); got != string(want) {
				t.Errorf("powerprop %v drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", g.args, got, want)
			}
		})
	}
}

func TestFig3(t *testing.T) {
	out := runOK(t, "fig3", "-coarse")
	for _, want := range []string{"Fig. 3", "avg-power budget", "400 Gbps", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, out)
		}
	}
	// The chart legend lists every bandwidth.
	if !strings.Contains(out, "1.6 Tbps") {
		t.Errorf("fig3 chart legend incomplete:\n%s", out)
	}
	if !strings.Contains(out, "best bandwidth by proportionality") {
		t.Errorf("fig3 missing crossover table:\n%s", out)
	}
	peak := runOK(t, "fig3", "-coarse", "-budget", "peak")
	if !strings.Contains(peak, "peak-power budget") {
		t.Errorf("fig3 peak ablation not labeled:\n%s", peak)
	}
	runErr(t, "fig3", "-budget", "bogus")
}

func TestFig4(t *testing.T) {
	out := runOK(t, "fig4", "-coarse")
	for _, want := range []string{"Fig. 4", "zero-proportionality", "10.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "fig4", "-fixedratio", "2")
	csv := runOK(t, "fig4", "-coarse", "-csv")
	if !strings.Contains(csv, "bandwidth,") {
		t.Errorf("fig4 CSV malformed:\n%s", csv)
	}
}

func TestCost(t *testing.T) {
	out := runOK(t, "cost")
	for _, want := range []string{"§3.2", "380.5 kW", "$433,", "$129,"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost output missing %q:\n%s", want, out)
		}
	}
	// Custom price scales linearly.
	out = runOK(t, "cost", "-price", "0.26")
	if !strings.Contains(out, "$866,") {
		t.Errorf("doubled price not doubled:\n%s", out)
	}
	runErr(t, "cost", "-price", "-1")
	// The saving is priced against the 10% reference, so a lower
	// proportionality is refused by name rather than failing in the model.
	for _, prop := range []string{"0.05", "0"} {
		var sb strings.Builder
		err := run([]string{"cost", "-prop", prop}, &sb)
		want := "engine: network proportionality " + prop + " outside [0.1,1]: cost prices the saving against the 10% reference"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("cost -prop %s = %v, want an error containing %q", prop, err, want)
		}
	}
}

func TestReport(t *testing.T) {
	out := runOK(t, "report")
	for _, want := range []string{"# Reproduction report", "**12.0%**", "**11.0%**",
		"| 400 Gbps | 0.0% | 1.2% | 4.8% | 8.9% | 10.7% |",
		"crossovers", "§3.2 worked example"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivity(t *testing.T) {
	out := runOK(t, "sensitivity")
	for _, want := range []string{"Sensitivity", "communication ratio", "switch max power",
		"server overhead per GPU", "savings@50%"} {
		if !strings.Contains(out, want) {
			t.Errorf("sensitivity output missing %q:\n%s", want, out)
		}
	}
	csv := runOK(t, "sensitivity", "-csv")
	if !strings.Contains(csv, "assumption,value") {
		t.Errorf("sensitivity CSV malformed:\n%s", csv)
	}
}

func TestScaling(t *testing.T) {
	out := runOK(t, "scaling")
	for _, want := range []string{"Cluster scaling", "15360", "262144", "savings@85%"} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "scaling", "-bw", "bogus")
	csv := runOK(t, "scaling", "-csv")
	if !strings.Contains(csv, "GPUs,stages") {
		t.Errorf("scaling CSV malformed:\n%s", csv)
	}
}

func TestSweep(t *testing.T) {
	out := runOK(t, "sweep", "-steps", "4", "-gpus", "2048")
	for _, want := range []string{"Proportionality sweep", "2048 GPUs", "0.0%", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < 7 { // title + header + rule + 5 rows
		t.Errorf("sweep too short (%d lines):\n%s", lines, out)
	}
	runErr(t, "sweep", "-steps", "0")
	csv := runOK(t, "sweep", "-steps", "2", "-csv")
	if !strings.Contains(csv, "prop,avg power") {
		t.Errorf("sweep CSV malformed:\n%s", csv)
	}
}
