package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

// drain runs events until the queue is empty.
func drain(e *Engine) {
	for e.Step() {
	}
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	drain(&e)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(*Engine) { order = append(order, i) })
	}
	drain(&e)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of FIFO order: %v", order)
		}
	}
}

func TestEngineCascade(t *testing.T) {
	var e Engine
	var fired []units.Seconds
	var tick Handler
	tick = func(en *Engine) {
		fired = append(fired, en.Now())
		if en.Now() < 5 {
			en.After(1, tick)
		}
	}
	e.After(1, tick)
	drain(&e)
	if len(fired) != 5 {
		t.Fatalf("cascade fired %d times, want 5: %v", len(fired), fired)
	}
	for i, at := range fired {
		if float64(at) != float64(i+1) {
			t.Errorf("tick %d at %v, want %d", i, at, i+1)
		}
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []units.Seconds
	for _, at := range []units.Seconds{1, 2, 3, 10} {
		at := at
		e.Schedule(at, func(en *Engine) { fired = append(fired, en.Now()) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Errorf("RunUntil(5) fired %d events, want 3", len(fired))
	}
	if e.Now() != 5 {
		t.Errorf("time after RunUntil = %v, want 5", e.Now())
	}
	if len(e.queue) != 1 {
		t.Errorf("queued = %d, want 1", len(e.queue))
	}
	e.RunUntil(20)
	if len(fired) != 4 || e.Now() != 20 {
		t.Errorf("after RunUntil(20): fired=%d now=%v", len(fired), e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func(*Engine) {})
	drain(&e)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(1, func(*Engine) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-1, func(*Engine) {})
}

// Property: any set of event times is executed in sorted order.
func TestEngineSortsArbitraryTimes(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Engine
		var got []float64
		for _, r := range raw {
			at := units.Seconds(r)
			e.Schedule(at, func(en *Engine) { got = append(got, float64(en.Now())) })
		}
		drain(&e)
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterIntegration(t *testing.T) {
	m := NewMeter(0, 100*units.Watt)
	m.Set(10, 50*units.Watt) // 100 W for 10 s
	m.Set(20, 0)             // 50 W for 10 s
	e := m.Energy(30)        // 0 W for 10 s
	if math.Abs(float64(e)-1500) > 1e-9 {
		t.Errorf("energy = %v, want 1500 J", e)
	}
}

func TestMeterIdempotentReads(t *testing.T) {
	m := NewMeter(0, 10*units.Watt)
	if e1, e2 := m.Energy(5), m.Energy(5); e1 != e2 {
		t.Errorf("repeated reads differ: %v vs %v", e1, e2)
	}
	// Reading earlier than the last read panics (time went backwards).
	defer func() {
		if recover() == nil {
			t.Error("backwards meter read should panic")
		}
	}()
	m.Energy(1)
}

// Property: meter energy equals the sum of piecewise power x duration for
// random step signals.
func TestMeterConservation(t *testing.T) {
	f := func(steps []struct {
		P uint16
		D uint8
	}) bool {
		m := NewMeter(0, 0)
		var now units.Seconds
		var want float64
		cur := 0.0
		for _, s := range steps {
			d := units.Seconds(s.D)
			want += cur * float64(d)
			now += d
			m.Set(now, units.Power(s.P))
			cur = float64(s.P)
		}
		return math.Abs(float64(m.Energy(now))-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScheduleAllocFree guards the free-list pool: once warm, the
// schedule-fire cycle performs no heap allocations per event.
func TestScheduleAllocFree(t *testing.T) {
	var e Engine
	nop := func(*Engine) {}
	e.After(1, nop)
	e.Step() // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, nop)
		e.Step()
	})
	if allocs > 0.01 {
		t.Errorf("schedule+step allocates %.3f objects/op, want 0", allocs)
	}
}

// Under the storm, the free list is actually exercised: after a run the
// engine has recycled objects available, and reusing the engine for a
// second storm still behaves correctly.
func TestFaultEngineReuseAfterStorm(t *testing.T) {
	var e Engine
	total := 0
	for i := 0; i < 100; i++ {
		e.After(units.Seconds(i)*0.01, func(*Engine) { total++ })
	}
	drain(&e)
	if total != 100 {
		t.Fatalf("first storm fired %d, want 100", total)
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after run; recycling is broken")
	}
	// Second storm on the same engine reuses recycled objects.
	for i := 0; i < 100; i++ {
		e.After(units.Seconds(i)*0.01, func(*Engine) { total++ })
	}
	drain(&e)
	if total != 200 {
		t.Fatalf("second storm fired %d total, want 200", total)
	}
}

// BenchmarkSchedule measures the event-queue hot cycle; allocs/op is the
// headline (free-list pool target: 0).
func BenchmarkSchedule(b *testing.B) {
	var e Engine
	nop := func(*Engine) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, nop)
		e.Step()
	}
}
