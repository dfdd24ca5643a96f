package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"netpowerprop/internal/netsim"
	"netpowerprop/internal/units"
)

// slotPlan builds the plan of a scenario request with the given co-sim
// models, as an engine configured with them would.
func slotPlan(t *testing.T, scenario string, params map[string]float64, models *netsim.Models) *RowPlan {
	t.Helper()
	norm, err := Request{Op: OpScenario, Scenario: scenario, Params: params}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planRows(norm, models)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// freshRow is row i of p computed on a fresh simulator, as JSON.
func freshRow(t *testing.T, p *RowPlan, i int) []byte {
	t.Helper()
	v, err := p.row(context.Background(), new(netsim.Sim), i)
	if err != nil {
		t.Fatalf("%s row %d on a fresh Sim: %v", p.req.Scenario, i, err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// Worker slots keep their simulators warm across rows of different
// topologies, routing modes, fault traces and co-sim models, and across a
// panicking row: each row's bytes must equal the same row on a fresh Sim.
// Run under -race, this also checks that a slot's Sim is used by one row
// at a time.
func TestSlotReuseMatchesFreshSim(t *testing.T) {
	models := &netsim.Models{Latency: func(req netsim.LatencyRequest) (units.Seconds, error) {
		return units.Seconds(float64(req.Hops)*1e-6 + req.Bits/req.BottleneckBps*2), nil
	}}
	plans := []*RowPlan{
		slotPlan(t, "topologies", map[string]float64{"hosts": 12, "seed": 3}, nil),        // ConcentrateRouting
		slotPlan(t, "faults", map[string]float64{"radix": 4, "iters": 3, "seed": 5}, nil), // HashECMP
		slotPlan(t, "topologies", map[string]float64{"hosts": 8, "seed": 4}, models),
		slotPlan(t, "faults", map[string]float64{"iters": 2, "seed": 6}, models),
	}
	chaos := slotPlan(t, "chaos", map[string]float64{"rows": 2, "panicrow": 1}, nil)
	type task struct {
		p *RowPlan
		i int
	}
	var tasks []task
	want := map[task][]byte{}
	for i := 0; ; i++ {
		n := len(tasks)
		for _, p := range plans {
			if i < p.n {
				tk := task{p, i}
				tasks = append(tasks, tk)
				want[tk] = freshRow(t, p, i)
			}
		}
		if len(tasks) == n {
			break
		}
		tasks = append(tasks, task{chaos, 1})
	}

	e := New(Options{Workers: 2})
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(tasks))
		for k, tk := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := e.ExecRow(ctx, tk.p, tk.i)
				var pe *PanicError
				switch {
				case tk.p == chaos:
					if !errors.As(err, &pe) {
						errs[k] = fmt.Errorf("chaos row: err = %v, want a recovered panic", err)
					}
				case err != nil:
					errs[k] = fmt.Errorf("%s row %d: %v", tk.p.req.Scenario, tk.i, err)
				case !bytes.Equal(got, want[tk]):
					errs[k] = fmt.Errorf("%s row %d on a slot Sim:\n%s\nfresh Sim:\n%s", tk.p.req.Scenario, tk.i, got, want[tk])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// A row that panics may leave its slot's Sim mid-run, so the slot gets a
// fresh one; a row that returns keeps its slot's Sim warm.
func TestPanickedSlotGetsFreshSim(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx := context.Background()
	faults := slotPlan(t, "faults", map[string]float64{"iters": 2}, nil)
	if _, err := e.ExecRow(ctx, faults, 0); err != nil {
		t.Fatal(err)
	}
	warm := <-e.slots
	e.slots <- warm
	if warm.WarmBytes() == 0 {
		t.Fatal("a faults row left its slot's Sim cold")
	}
	chaos := slotPlan(t, "chaos", map[string]float64{"panic": 1}, nil)
	var pe *PanicError
	if _, err := e.ExecRow(ctx, chaos, 0); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
	s := <-e.slots
	e.slots <- s
	if s == warm || s.WarmBytes() != 0 {
		t.Errorf("the panicked slot kept its Sim (%d warm bytes)", s.WarmBytes())
	}
}

// A slot keeps no more than netsim.WarmCap bytes after any row, however
// large: here every topology of the zoo at 32 hosts. None of those rows
// exceeds the cap, so Trim keeps every one's warm state, path table
// included, for the next row.
func TestSlotWarmStateIsCapped(t *testing.T) {
	e := New(Options{Workers: 1})
	zoo := slotPlan(t, "topologies", map[string]float64{"hosts": 32}, nil)
	for i := 0; i < zoo.n; i++ {
		if _, err := e.ExecRow(context.Background(), zoo, i); err != nil {
			t.Fatal(err)
		}
		s := <-e.slots
		e.slots <- s
		if got := s.WarmBytes(); got == 0 || got > netsim.WarmCap {
			t.Errorf("row %d left %d warm bytes in its slot, want (0, %d]", i, got, netsim.WarmCap)
		}
	}
}
