// Package fault is the deterministic fault-injection layer for the
// simulators: link flaps, permanent link and switch failures, "stuck
// asleep" wake misses for power-gated/EEE links, and slow or failed OCS
// reconfigurations. Faults are described as a Trace of timestamped events
// — built explicitly or drawn from a seeded RNG (Generate) — and compiled
// into a Timeline of epochs with constant dead-link sets, which
// internal/netsim consumes to reroute flows around dead links. Everything
// in this package is deterministic for a fixed seed: the same trace
// compiles to the same timeline on every run, which is what keeps seeded
// fault scenarios bit-reproducible across runs.
package fault

import (
	"fmt"
	"slices"

	"netpowerprop/internal/units"
)

// Kind classifies a fault event.
type Kind int

const (
	// KindLinkDown takes a link out of service at the event time (the
	// start of a flap, or forever if no matching KindLinkUp follows).
	KindLinkDown Kind = iota
	// KindLinkUp returns a link to service.
	KindLinkUp
	// KindSwitchDown fails a switch: every incident link goes down.
	KindSwitchDown
	// KindSwitchUp recovers a switch and its incident links.
	KindSwitchUp
	// KindWakeStuck is a link wake that missed its deadline: the link was
	// due up at At-Extra but only comes up at At. State-wise it is a
	// KindLinkUp at At; the kind is kept distinct so reports can count
	// missed wake deadlines (the §4 power-gating/EEE failure mode).
	KindWakeStuck
	// KindReconfigSlow annotates a slow OCS reconfiguration: Extra is the
	// added latency. No direct state change; recovery events derived from
	// the reconfiguration already carry the delay.
	KindReconfigSlow
	// KindReconfigFail annotates a failed OCS reconfiguration attempt that
	// had to be retried. No direct state change.
	KindReconfigFail
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	case KindSwitchDown:
		return "switch-down"
	case KindSwitchUp:
		return "switch-up"
	case KindWakeStuck:
		return "wake-stuck"
	case KindReconfigSlow:
		return "reconfig-slow"
	case KindReconfigFail:
		return "reconfig-fail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timestamped fault. Target is a link ID for link events and
// a switch node ID for switch events. Extra carries kind-specific latency
// (how late a stuck wake was, how long a slow reconfiguration took).
type Event struct {
	At     units.Seconds
	Kind   Kind
	Target int
	Extra  units.Seconds
}

// Trace is an ordered sequence of fault events. The zero value is an empty
// trace ready to use. Traces are value-buildable and deterministic: events
// sort by (time, insertion order), so two identically-built traces compile
// to identical timelines.
type Trace struct {
	events []Event
	seq    []int // insertion order, for a stable sort among equal times
	sorted bool
}

// Add appends an event.
func (t *Trace) Add(e Event) {
	t.events = append(t.events, e)
	t.seq = append(t.seq, len(t.seq))
	t.sorted = false
}

// LinkDown schedules a link outage starting at the given time.
func (t *Trace) LinkDown(at units.Seconds, link int) {
	t.Add(Event{At: at, Kind: KindLinkDown, Target: link})
}

// LinkUp schedules a link recovery.
func (t *Trace) LinkUp(at units.Seconds, link int) {
	t.Add(Event{At: at, Kind: KindLinkUp, Target: link})
}

// FailLink schedules a permanent link failure (no recovery).
func (t *Trace) FailLink(at units.Seconds, link int) { t.LinkDown(at, link) }

// SwitchDown schedules a switch outage (all incident links down).
func (t *Trace) SwitchDown(at units.Seconds, sw int) {
	t.Add(Event{At: at, Kind: KindSwitchDown, Target: sw})
}

// SwitchUp schedules a switch recovery.
func (t *Trace) SwitchUp(at units.Seconds, sw int) {
	t.Add(Event{At: at, Kind: KindSwitchUp, Target: sw})
}

// FailSwitch schedules a permanent switch failure.
func (t *Trace) FailSwitch(at units.Seconds, sw int) { t.SwitchDown(at, sw) }

// WakeStuck records that a link due up at `deadline` misses it by `extra`:
// the link actually comes up at deadline+extra.
func (t *Trace) WakeStuck(deadline units.Seconds, link int, extra units.Seconds) {
	t.Add(Event{At: deadline + extra, Kind: KindWakeStuck, Target: link, Extra: extra})
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.events) }

// sort orders events by (time, insertion order) in place.
func (t *Trace) sort() {
	if t.sorted {
		return
	}
	idx := make([]int, len(t.events))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ta, tb := t.events[a].At, t.events[b].At
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		default:
			return t.seq[a] - t.seq[b]
		}
	})
	ev := make([]Event, len(t.events))
	for i, j := range idx {
		ev[i] = t.events[j]
	}
	t.events = ev
	for i := range t.seq {
		t.seq[i] = i
	}
	t.sorted = true
}

// Events returns the events sorted by (time, insertion order). The
// returned slice is owned by the trace; do not mutate it.
func (t *Trace) Events() []Event {
	t.sort()
	return t.events
}

// Clone returns an independent copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{}
	for _, e := range t.Events() {
		c.Add(e)
	}
	return c
}

// Validate checks event sanity against a topology size: non-negative
// times, link targets within [0, numLinks), switch targets valid per the
// incident function.
func (t *Trace) Validate(numLinks int, incident func(sw int) []int) error {
	for i, e := range t.Events() {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %v", i, e.At)
		}
		switch e.Kind {
		case KindLinkDown, KindLinkUp, KindWakeStuck:
			if e.Target < 0 || e.Target >= numLinks {
				return fmt.Errorf("fault: event %d targets unknown link %d", i, e.Target)
			}
		case KindSwitchDown, KindSwitchUp:
			if incident == nil {
				return fmt.Errorf("fault: event %d targets switch %d but no topology given", i, e.Target)
			}
			if len(incident(e.Target)) == 0 {
				return fmt.Errorf("fault: event %d targets switch %d with no incident links", i, e.Target)
			}
		case KindReconfigSlow, KindReconfigFail:
			// Annotations: no target constraints.
		default:
			return fmt.Errorf("fault: event %d has unknown kind %v", i, e.Kind)
		}
	}
	return nil
}
