// Package sim is a minimal discrete-event simulation kernel: a virtual
// clock and an event queue ordered by time (FIFO among equal times), plus a
// power meter. It is the kernel of parking's packet-level validator, which
// checks the fluid pipeline-parking model against individual packets.
package sim

import (
	"container/heap"
	"fmt"

	"netpowerprop/internal/units"
)

// Handler is a scheduled callback. It runs with the engine clock set to its
// event time and may schedule further events.
type Handler func(e *Engine)

type event struct {
	at  units.Seconds
	seq uint64
	fn  Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is the simulation clock and event queue. The zero value is ready
// to use at time 0.
type Engine struct {
	now   units.Seconds
	queue eventQueue
	seq   uint64
	// free is the event free list: fired events are recycled here instead
	// of left to the garbage collector, so long runs stop allocating one
	// heap object per scheduled event.
	free []*event
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// Schedule runs fn at the given absolute virtual time. Scheduling in the
// past panics: it indicates a simulator bug, not a recoverable condition.
func (e *Engine) Schedule(at units.Seconds, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &event{at: at, seq: e.seq, fn: fn}
	}
	e.seq++
	heap.Push(&e.queue, ev)
}

// After runs fn after a non-negative delay.
func (e *Engine) After(delay units.Seconds, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	fn := ev.fn
	// Recycle before running: fn may schedule new events, and the hot
	// schedule-one-fire-one pattern then reuses this object directly.
	ev.fn = nil
	e.free = append(e.free, ev)
	fn(e)
	return true
}

// RunUntil executes events with time ≤ until, then advances the clock to
// exactly until. Events scheduled during execution are honored.
func (e *Engine) RunUntil(until units.Seconds) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if until > e.now {
		e.now = until
	}
}

// Meter integrates a piecewise-constant power signal into energy.
type Meter struct {
	lastT  units.Seconds
	power  units.Power
	energy units.Energy
}

// NewMeter starts a meter at time t drawing p.
func NewMeter(t units.Seconds, p units.Power) *Meter {
	return &Meter{lastT: t, power: p}
}

// Set records a power change at time t (t must not precede the previous
// sample): the meter accumulates at the old power up to t, then switches.
func (m *Meter) Set(t units.Seconds, p units.Power) {
	m.accumulate(t)
	m.power = p
}

func (m *Meter) accumulate(t units.Seconds) {
	d := t - m.lastT
	if d < 0 {
		panic(fmt.Sprintf("sim: meter sample at %v before %v", t, m.lastT))
	}
	if d > 0 {
		m.energy += units.EnergyOver(m.power, d)
		m.lastT = t
	}
}

// Energy returns the total energy consumed up to time t.
func (m *Meter) Energy(t units.Seconds) units.Energy {
	m.accumulate(t)
	return m.energy
}
