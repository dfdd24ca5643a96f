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

// TestScenarioGolden pins the topologies and faults tables against
// checked-in snapshots, so a routing or simulator change that moves any
// byte of either scenario shows up as a reviewable diff. Regenerate with:
//
//	go run ./cmd/netsim topologies -hosts 16 -seed 7 > cmd/netsim/testdata/topologies-h16-s7.golden
//	go run ./cmd/netsim faults -seed 7 > cmd/netsim/testdata/faults-s7.golden
func TestScenarioGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"topologies-h16-s7.golden", []string{"topologies", "-hosts", "16", "-seed", "7"}},
		{"faults-s7.golden", []string{"faults", "-seed", "7"}},
	} {
		want, err := os.ReadFile("testdata/" + tc.golden)
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if got := runOK(t, tc.args...); got != string(want) {
			t.Errorf("%v output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, tc.golden, got, want)
		}
	}
}

func TestNoScenario(t *testing.T) {
	runErr(t)
	runErr(t, "bogus")
}

func TestGating(t *testing.T) {
	out := runOK(t, "gating")
	for _, want := range []string{"§4.1", "PM0", "PM3", "47.5%", "governor picks PM3"} {
		if !strings.Contains(out, want) {
			t.Errorf("gating output missing %q:\n%s", want, out)
		}
	}
	// A tight wake budget stops the governor at PM1.
	out = runOK(t, "gating", "-wake", "0.0001")
	if !strings.Contains(out, "governor picks PM1") {
		t.Errorf("wake budget ignored:\n%s", out)
	}
	// A fully used L3 switch has nothing to gate.
	out = runOK(t, "gating", "-ports", "128", "-l3", "-fib", "1")
	if !strings.Contains(out, "governor picks PM0") && !strings.Contains(out, "0.0%") {
		t.Errorf("fully used switch should save nothing:\n%s", out)
	}
	runErr(t, "gating", "-ports", "1000")
	runErr(t, "gating", "-fib", "2")
}

func TestOCS(t *testing.T) {
	out := runOK(t, "ocs")
	for _, want := range []string{"§4.2", "tailored active switches", "standby pool"} {
		if !strings.Contains(out, want) {
			t.Errorf("ocs output missing %q:\n%s", want, out)
		}
	}
	for _, pattern := range []string{"alltoall", "neighbor"} {
		out := runOK(t, "ocs", "-pattern", pattern)
		if !strings.Contains(out, pattern) {
			t.Errorf("pattern %s not reflected:\n%s", pattern, out)
		}
	}
	runErr(t, "ocs", "-pattern", "bogus")
	runErr(t, "ocs", "-radix", "7")
	runErr(t, "ocs", "-hosts", "100000")
}

func TestRateAdapt(t *testing.T) {
	out := runOK(t, "rateadapt")
	for _, want := range []string{"§4.3", "static (today)", "global reactive",
		"per-pipeline reactive + SerDes gating"} {
		if !strings.Contains(out, want) {
			t.Errorf("rateadapt output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "rateadapt", "-busy", "9")
	runErr(t, "rateadapt", "-ratio", "0")
	runErr(t, "rateadapt", "-level", "2")
}

func TestParking(t *testing.T) {
	out := runOK(t, "parking", "-samples", "200")
	for _, want := range []string{"§4.4", "always-on", "reactive", "scheduled"} {
		if !strings.Contains(out, want) {
			t.Errorf("parking output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "parking", "-ratio", "0")
}

func TestEEE(t *testing.T) {
	out := runOK(t, "eee")
	for _, want := range []string{"802.3az", "5.0%", "90.0%", "LPI share"} {
		if !strings.Contains(out, want) {
			t.Errorf("eee output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "eee", "-speed", "bogus")
}

func TestRateLink(t *testing.T) {
	out := runOK(t, "ratelink")
	for _, want := range []string{"NSDI'08", "sleep savings", "rate savings", "mean speed"} {
		if !strings.Contains(out, want) {
			t.Errorf("ratelink output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "ratelink", "-speed", "bogus")
}

func TestChiplet(t *testing.T) {
	out := runOK(t, "chiplet")
	for _, want := range []string{"§4.5", "today: monolithic", "64 chiplets", "co-packaged"} {
		if !strings.Contains(out, want) {
			t.Errorf("chiplet output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "chiplet", "-ratio", "0")
	runErr(t, "chiplet", "-level", "2")
}

func TestBackbone(t *testing.T) {
	out := runOK(t, "backbone")
	for _, want := range []string{"§3.4", "link sleeping", "links asleep", "connectivity preserved"} {
		if !strings.Contains(out, want) {
			t.Errorf("backbone output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "backbone", "-routers", "1")
	runErr(t, "backbone", "-trough", "0.9", "-peak", "0.1")
	runErr(t, "backbone", "-cap", "2")
}

func TestSummary(t *testing.T) {
	out := runOK(t, "summary")
	for _, want := range []string{"synthesis", "§4.3 rate adaptation", "§4.4 scheduled pipeline parking",
		"§4.5 64-chiplet", "effective prop", "cluster savings", "$/year"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "summary", "-ratio", "0")
	runErr(t, "summary", "-ratio", "1")
}

func TestScheduler(t *testing.T) {
	out := runOK(t, "scheduler")
	for _, want := range []string{"§4.2", "spread", "concentrate"} {
		if !strings.Contains(out, want) {
			t.Errorf("scheduler output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "scheduler", "-radix", "3")
}

func TestFabric(t *testing.T) {
	out := runOK(t, "fabric")
	for _, want := range []string{"flow-level fabric simulation", "baseline network energy", "10.0%", "90.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fabric output missing %q:\n%s", want, out)
		}
	}
	out = runOK(t, "fabric", "-tiers", "2", "-radix", "6")
	if !strings.Contains(out, "2-tier") {
		t.Errorf("two-tier not reflected:\n%s", out)
	}
	runErr(t, "fabric", "-tiers", "4")
	runErr(t, "fabric", "-radix", "3")
	runErr(t, "fabric", "-iters", "0")
}
