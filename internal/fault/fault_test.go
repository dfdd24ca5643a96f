package fault

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"netpowerprop/internal/sim"
	"netpowerprop/internal/units"
)

func TestCompileFlap(t *testing.T) {
	tr := &Trace{}
	tr.Flap(2, 1, 3) // link 1 down [2,5)
	tl, err := Compile(tr, 10, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStarts := []units.Seconds{0, 2, 5}
	if !reflect.DeepEqual(tl.Starts, wantStarts) {
		t.Fatalf("starts = %v, want %v", tl.Starts, wantStarts)
	}
	if tl.Dead[0][1] || !tl.Dead[1][1] || tl.Dead[2][1] {
		t.Fatalf("dead sets wrong: %v", tl.Dead)
	}
	if tl.DeadCount[0] != 0 || tl.DeadCount[1] != 1 || tl.DeadCount[2] != 0 {
		t.Fatalf("dead counts = %v", tl.DeadCount)
	}
	if tl.Events != 2 {
		t.Fatalf("events = %d, want 2", tl.Events)
	}
}

func TestCompileEpochLookup(t *testing.T) {
	tr := &Trace{}
	tr.Flap(2, 0, 3)
	tl, err := Compile(tr, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   units.Seconds
		want int
	}{{0, 0}, {1.9, 0}, {2, 1}, {4.9, 1}, {5, 2}, {9, 2}} {
		if got := tl.EpochAt(tc.at); got != tc.want {
			t.Errorf("EpochAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// A link failed by both a flap and its switch must stay down until both
// recover (outages are reference-counted).
func TestCompileOverlapDepth(t *testing.T) {
	incident := func(sw int) []int {
		if sw == 7 {
			return []int{0, 1}
		}
		return nil
	}
	tr := &Trace{}
	tr.LinkDown(1, 0)
	tr.SwitchDown(2, 7) // links 0 and 1 down
	tr.LinkUp(3, 0)     // link 0 still down: switch 7 holds it
	tr.SwitchUp(4, 7)   // now everything recovers
	tl, err := Compile(tr, 10, 2, incident)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		at     units.Seconds
		l0, l1 bool
	}
	for _, tc := range []state{{1.5, true, false}, {2.5, true, true}, {3.5, true, true}, {4.5, false, false}} {
		e := tl.EpochAt(tc.at)
		if tl.Dead[e][0] != tc.l0 || tl.Dead[e][1] != tc.l1 {
			t.Errorf("at %v: dead = (%v,%v), want (%v,%v)", tc.at, tl.Dead[e][0], tl.Dead[e][1], tc.l0, tc.l1)
		}
	}
}

// Events at t<=0 (e.g. power-gated links expressed as down-at-zero) fold
// into epoch 0; events at or beyond the horizon are dropped.
func TestCompileBoundaries(t *testing.T) {
	tr := &Trace{}
	tr.LinkDown(0, 2)
	tr.LinkUp(15, 2) // beyond the horizon
	tl, err := Compile(tr, 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumEpochs() != 1 || !tl.Dead[0][2] {
		t.Fatalf("want one epoch with link 2 dead, got starts=%v dead=%v", tl.Starts, tl.Dead)
	}
	if tl.Events != 1 {
		t.Fatalf("events = %d, want 1 (recovery beyond horizon dropped)", tl.Events)
	}
}

// An unmatched recovery is clamped: the link is simply up.
func TestCompileUnmatchedUp(t *testing.T) {
	tr := &Trace{}
	tr.LinkUp(1, 0)
	tr.LinkDown(2, 0)
	tl, err := Compile(tr, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Dead[tl.EpochAt(1.5)][0] {
		t.Fatal("unmatched up must not take the link down")
	}
	if !tl.Dead[tl.EpochAt(2.5)][0] {
		t.Fatal("later down must still apply")
	}
}

func TestCompileWakeStuck(t *testing.T) {
	tr := &Trace{}
	tr.LinkDown(1, 0)
	tr.WakeStuck(3, 0, 0.5) // due up at 3, actually up at 3.5
	tl, err := Compile(tr, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Dead[tl.EpochAt(3.2)][0] {
		t.Fatal("link must still be down past its missed wake deadline")
	}
	if tl.Dead[tl.EpochAt(3.6)][0] {
		t.Fatal("link must be up after the stuck wake completes")
	}
	if tl.MissedWakes != 1 {
		t.Fatalf("missed wakes = %d, want 1", tl.MissedWakes)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := &Trace{}
	bad.LinkDown(1, 99)
	if _, err := Compile(bad, 10, 4, nil); err == nil {
		t.Error("out-of-range link accepted")
	}
	neg := &Trace{}
	neg.Add(Event{At: -1, Kind: KindLinkDown, Target: 0})
	if _, err := Compile(neg, 10, 4, nil); err == nil {
		t.Error("negative event time accepted")
	}
	sw := &Trace{}
	sw.SwitchDown(1, 3)
	if _, err := Compile(sw, 10, 4, nil); err == nil {
		t.Error("switch event without topology accepted")
	}
	if _, err := Compile(&Trace{}, 0, 4, nil); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Horizon: 10, Links: []int{0, 1, 2, 3}, Flaps: 20, MTTR: 0.5,
		PermanentFailures: 2, Switches: []int{10, 11}, SwitchFailures: 1,
		WakeStuckProb: 0.3, WakeStuckExtra: 1,
	}
	a, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Generate(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical traces")
	}
	// Every primary failure starts within the horizon; targets are valid.
	downs := 0
	for _, e := range a.Events() {
		switch e.Kind {
		case KindLinkDown, KindSwitchDown:
			downs++
			if e.At < 0 || e.At >= cfg.Horizon {
				t.Errorf("failure at %v outside [0,%v)", e.At, cfg.Horizon)
			}
		}
	}
	if want := cfg.Flaps + cfg.PermanentFailures + cfg.SwitchFailures; downs != want {
		t.Errorf("downs = %d, want %d", downs, want)
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Horizon: 0},
		{Horizon: 10, Flaps: 1},                  // no links
		{Horizon: 10, Links: []int{0}, Flaps: 1}, // no MTTR
		{Horizon: 10, SwitchFailures: 1},         // no switches
		{Horizon: 10, Links: []int{0}, Flaps: 1, MTTR: 1, WakeStuckProb: 2},   // bad prob
		{Horizon: 10, Links: []int{0}, Flaps: 1, MTTR: 1, WakeStuckProb: 0.5}, // no extra
	} {
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestReconfigModel(t *testing.T) {
	m := ReconfigModel{Base: 0.1, SlowProb: 0.5, SlowFactor: 10, FailProb: 0.3}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		oa, ob := m.Sample(a), m.Sample(b)
		if oa != ob {
			t.Fatalf("sample %d: %+v != %+v", i, oa, ob)
		}
		if oa.Delay < m.Base {
			t.Fatalf("delay %v below base %v", oa.Delay, m.Base)
		}
	}
	// With injections disabled the delay is exactly the base.
	clean := ReconfigModel{Base: 0.25}
	if out := clean.Sample(NewRand(1)); out.Delay != 0.25 || out.Slow != 0 || out.Failed != 0 {
		t.Fatalf("clean sample = %+v", out)
	}
	for _, bad := range []ReconfigModel{
		{Base: 0},
		{Base: 1, SlowProb: 2},
		{Base: 1, SlowProb: 0.5, SlowFactor: 0.5},
		{Base: 1, FailProb: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("model %+v accepted", bad)
		}
	}
}

// Storm replays a trace onto the discrete-event kernel in time order, and
// canceling the returned timers stops the remainder of the storm.
func TestStormReplayAndCancel(t *testing.T) {
	tr := &Trace{}
	tr.Flap(1, 3, 2)
	tr.FailSwitch(4, 9)
	var got []Event
	var eng sim.Engine
	timers := Storm(&eng, tr, func(e *sim.Engine, ev Event) {
		if e.Now() != ev.At {
			t.Errorf("event %v delivered at %v", ev, e.Now())
		}
		got = append(got, ev)
	})
	if len(timers) != 3 {
		t.Fatalf("timers = %d, want 3", len(timers))
	}
	timers[2].Cancel() // drop the switch failure
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	if got[0].Kind != KindLinkDown || got[1].Kind != KindLinkUp {
		t.Fatalf("events out of order: %v", got)
	}
}

// Span must select exactly the epochs the overlap predicate
// !(end <= et0 || start >= et1) selects, for random timelines (with
// duplicate, zero-width epoch starts) and random windows whose ends land
// on epoch starts, on the horizon, or in between.
func TestSpanMatchesOverlapPredicate(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		horizon := units.Seconds(1 + r.IntN(8))
		// Starts[0] is 0 as Compile emits it; later starts are drawn on a
		// coarse grid so duplicates (zero-width epochs) are common, and may
		// sit on the horizon itself.
		starts := []units.Seconds{0}
		for n := r.IntN(6); n > 0; n-- {
			starts = append(starts, units.Seconds(r.IntN(int(horizon)*2+1))/2)
		}
		slices.Sort(starts)
		tl := &Timeline{Starts: starts}
		// Window endpoints: an epoch start, the horizon, or a point between.
		point := func() units.Seconds {
			switch r.IntN(3) {
			case 0:
				return starts[r.IntN(len(starts))]
			case 1:
				return horizon
			default:
				return units.Seconds(r.Float64()) * horizon
			}
		}
		for w := 0; w < 20; w++ {
			start, end := point(), point()
			if start > end {
				start, end = end, start
			}
			if start == end || start >= horizon {
				continue
			}
			var want []int
			for e := range starts {
				et0, et1 := starts[e], horizon
				if e+1 < len(starts) {
					et1 = starts[e+1]
				}
				if !(end <= et0 || start >= et1) {
					want = append(want, e)
				}
			}
			first, last := tl.Span(start, end)
			var got []int
			for e := first; e <= last; e++ {
				got = append(got, e)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("starts %v horizon %v window [%v,%v): Span = [%d,%d] selects %v, predicate selects %v",
					starts, horizon, start, end, first, last, got, want)
			}
			if len(want) > 0 && first != tl.EpochAt(start) {
				t.Fatalf("starts %v window [%v,%v): first %d != EpochAt %d", starts, start, end, first, tl.EpochAt(start))
			}
		}
	}
}
