package backbone

import (
	"math"
	"testing"

	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

func flat(level float64) traffic.Profile {
	return func(units.Seconds) float64 { return level }
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 100); err == nil {
		t.Error("single router accepted")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative router power accepted")
	}
	n, err := New(4, 100*units.Watt)
	if err != nil || n.routers != 4 {
		t.Fatalf("New: %v", err)
	}
}

func TestAddLinkValidation(t *testing.T) {
	n, _ := New(4, 100*units.Watt)
	if _, err := n.AddLink(0, 9, 100*units.Gbps, 10*units.Watt, flat(0.5)); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := n.AddLink(1, 1, 100*units.Gbps, 10*units.Watt, flat(0.5)); err == nil {
		t.Error("self-link accepted")
	}
	if _, err := n.AddLink(0, 1, 0, 10*units.Watt, flat(0.5)); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := n.AddLink(0, 1, 100*units.Gbps, -1, flat(0.5)); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := n.AddLink(0, 1, 100*units.Gbps, 10*units.Watt, nil); err == nil {
		t.Error("nil profile accepted")
	}
	id, err := n.AddLink(0, 1, 100*units.Gbps, 10*units.Watt, flat(0.5))
	if err != nil || id != 0 {
		t.Fatalf("AddLink: %v, id=%d", err, id)
	}
	if len(n.Links()) != 1 {
		t.Errorf("links = %d", len(n.Links()))
	}
}

func TestRingConstruction(t *testing.T) {
	n, err := Ring(8, 100*units.Gbps, 20*units.Watt, 200*units.Watt, 0.1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Links()) != 8 {
		t.Fatalf("ring links = %d, want 8", len(n.Links()))
	}
	// Phase shifts: different links peak at different times.
	l0, l4 := n.Links()[0], n.Links()[4]
	if math.Abs(l0.Load(0)-l4.Load(0)) < 1e-9 {
		t.Error("phase shift missing: links 0 and 4 have identical load at t=0")
	}
}

// TestRingSleepsAtMostOne: a pure cycle has no redundancy beyond one link;
// connectivity admits exactly one slept link.
func TestRingSleepsAtMostOne(t *testing.T) {
	n, err := Ring(6, 100*units.Gbps, 20*units.Watt, 200*units.Watt, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := n.PlanAt(0, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Asleep) != 1 {
		t.Errorf("ring slept %d links, want exactly 1", len(plan.Asleep))
	}
	// The slept link's traffic moved onto the 5-hop alternative path, so
	// the summed utilization grows by exactly 4x the moved load (the
	// moved traffic now crosses five links instead of one).
	var before, after float64
	for _, l := range n.Links() {
		before += l.Load(0)
	}
	for _, u := range plan.Utilization {
		after += u
	}
	moved := n.Links()[plan.Asleep[0]].Load(0)
	if math.Abs(after-(before+4*moved)) > 1e-9 {
		t.Errorf("reroute accounting off: before %v, after %v, moved %v", before, after, moved)
	}
	// No slept link appears among the survivors.
	if _, ok := plan.Utilization[plan.Asleep[0]]; ok {
		t.Error("slept link still listed as up")
	}
}

// chordedRing builds a ring plus cross chords — enough redundancy to sleep
// several links.
func chordedRing(t *testing.T, trough, peak float64) *Network {
	t.Helper()
	n, err := Ring(8, 100*units.Gbps, 20*units.Watt, 200*units.Watt, trough, peak)
	if err != nil {
		t.Fatal(err)
	}
	const day = units.Seconds(86400)
	for _, chord := range [][2]int{{0, 4}, {2, 6}} {
		prof, err := traffic.Diurnal(trough, peak, day)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddLink(chord[0], chord[1], 100*units.Gbps, 20*units.Watt, prof); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestChordedRingSleepsMore(t *testing.T) {
	n := chordedRing(t, 0.05, 0.3)
	plan, err := n.PlanAt(0, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Asleep) < 2 {
		t.Errorf("chorded ring slept %d links, want >= 2", len(plan.Asleep))
	}
	// No surviving link exceeds the cap.
	for id, u := range plan.Utilization {
		if u > 0.9+1e-9 {
			t.Errorf("link %d at %v exceeds the 0.9 cap", id, u)
		}
	}
	// Power accounting: routers + surviving links.
	wantPower := 8*200.0 + float64(10-len(plan.Asleep))*20.0
	if math.Abs(float64(plan.Power)-wantPower) > 1e-9 {
		t.Errorf("plan power = %v, want %v", plan.Power, wantPower)
	}
}

// TestCapBlocksSleeping: with links already near the cap, rerouting would
// overload survivors, so nothing sleeps even below the sleep threshold.
func TestCapBlocksSleeping(t *testing.T) {
	n, _ := New(3, 100*units.Watt)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if _, err := n.AddLink(e[0], e[1], 100*units.Gbps, 10*units.Watt, flat(0.45)); err != nil {
			t.Fatal(err)
		}
	}
	// sleepBelow 0.5 makes every link a candidate, but moving 0.45 onto a
	// 0.45 link busts a 0.8 cap.
	plan, err := n.PlanAt(0, 0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Asleep) != 0 {
		t.Errorf("slept %d links despite the utilization cap", len(plan.Asleep))
	}
	// Raise the cap: one link can sleep (0.45+0.45 = 0.90 <= 0.95).
	plan, err = n.PlanAt(0, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Asleep) != 1 {
		t.Errorf("slept %d links with a high cap, want 1", len(plan.Asleep))
	}
}

func TestPlanAtValidation(t *testing.T) {
	n, _ := New(2, 100*units.Watt)
	if _, err := n.PlanAt(0, 0.5, 0.9); err == nil {
		t.Error("no links accepted")
	}
	n.AddLink(0, 1, 100*units.Gbps, 10*units.Watt, flat(0.1))
	if _, err := n.PlanAt(0, -0.1, 0.9); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := n.PlanAt(0, 0.5, 0); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := n.PlanAt(0, 0.5, 1.5); err == nil {
		t.Error("cap > 1 accepted")
	}
}

// TestBridgeNeverSleeps: a line topology's middle link is a bridge.
func TestBridgeNeverSleeps(t *testing.T) {
	n, _ := New(3, 100*units.Watt)
	n.AddLink(0, 1, 100*units.Gbps, 10*units.Watt, flat(0.01))
	n.AddLink(1, 2, 100*units.Gbps, 10*units.Watt, flat(0.01))
	plan, err := n.PlanAt(0, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Asleep) != 0 {
		t.Errorf("bridges slept: %v", plan.Asleep)
	}
}

func TestSimulateDay(t *testing.T) {
	n := chordedRing(t, 0.05, 0.7)
	res, err := n.SimulateDay(3600, 0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings <= 0 {
		t.Errorf("diurnal sleeping saved %v, want > 0", res.Savings)
	}
	if res.Energy >= res.Baseline {
		t.Error("energy above baseline")
	}
	if res.MeanAsleep <= 0 {
		t.Error("nothing slept on a diurnal day")
	}
	if res.MaxUtilization > 0.85+1e-9 {
		t.Errorf("max utilization %v exceeded the cap", res.MaxUtilization)
	}
	// Savings are bounded by the link share of total power: 10 links x 20 W
	// of 8x200 + 10x20 = 1800 W -> at most ~11%.
	if res.Savings > 10.0*20/(8*200+10*20) {
		t.Errorf("savings %v exceed the sleepable share", res.Savings)
	}
	if _, err := n.SimulateDay(0, 0.3, 0.85); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := n.SimulateDay(1e9, 0.3, 0.85); err == nil {
		t.Error("oversized step accepted")
	}
}

// TestNightVsDay: more links sleep at the diurnal trough than at the peak.
func TestNightVsDay(t *testing.T) {
	n := chordedRing(t, 0.05, 0.9)
	// The shared-phase chords plus shifted ring links: compare plans at
	// trough (t=0 for link 0's profile) and near the common peak.
	night, err := n.PlanAt(0, 0.4, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	day, err := n.PlanAt(43200, 0.4, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(night.Asleep) <= len(day.Asleep) {
		t.Errorf("night slept %d, day slept %d — expected more at night",
			len(night.Asleep), len(day.Asleep))
	}
}
