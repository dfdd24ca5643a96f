package fault

import (
	"fmt"
	"sort"

	"netpowerprop/internal/units"
)

// Timeline is a compiled fault trace: the horizon split into epochs, each
// with a constant set of dead links. Epoch e covers
// [Starts[e], Starts[e+1]) (the last runs to the horizon). Dead[e][l]
// reports whether link l is out of service during epoch e; link outages
// are reference-counted, so a link failed by both a flap and its switch
// stays down until both recover.
type Timeline struct {
	Starts []units.Seconds
	Dead   [][]bool
	// DeadCount[e] is the number of dead links during epoch e, so callers
	// can skip fault handling entirely for clean epochs.
	DeadCount []int
	// Events is the number of trace events that fell within the horizon.
	Events int
	// MissedWakes counts KindWakeStuck events within the horizon — links
	// that were due up earlier but woke late.
	MissedWakes int
}

// NumEpochs returns the number of epochs (always >= 1).
func (tl *Timeline) NumEpochs() int { return len(tl.Starts) }

// EpochAt returns the index of the epoch containing time x.
func (tl *Timeline) EpochAt(x units.Seconds) int {
	// First epoch with Start > x, minus one.
	i := sort.Search(len(tl.Starts), func(i int) bool { return tl.Starts[i] > x })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Span returns the epochs [first, last] that the window [start, end)
// overlaps: those with Starts[e] < end and start < the epoch's end (the
// last epoch ends at the horizon, which must exceed start). first is
// EpochAt(start); last < first only when the window ends at or before
// Starts[0]. Zero-width epochs strictly inside the window count as
// overlapped, exactly like their neighbours.
func (tl *Timeline) Span(start, end units.Seconds) (first, last int) {
	last = sort.Search(len(tl.Starts), func(i int) bool { return tl.Starts[i] >= end }) - 1
	return tl.EpochAt(start), last
}

// Compile flattens a trace into a timeline over [0, horizon). numLinks
// sizes the dead-link sets; incident maps a switch node ID to its link IDs
// (required only when the trace contains switch events). Events at or
// beyond the horizon are dropped — they cannot affect the simulated span.
func Compile(tr *Trace, horizon units.Seconds, numLinks int, incident func(sw int) []int) (*Timeline, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("fault: non-positive horizon %v", horizon)
	}
	if err := tr.Validate(numLinks, incident); err != nil {
		return nil, err
	}
	depth := make([]int, numLinks) // outage reference count per link
	tl := &Timeline{}
	snapshot := func(at units.Seconds) {
		dead := make([]bool, numLinks)
		n := 0
		for l, d := range depth {
			if d > 0 {
				dead[l] = true
				n++
			}
		}
		// Only open a new epoch if the dead set actually changed.
		if len(tl.Starts) > 0 {
			last := tl.Dead[len(tl.Dead)-1]
			same := true
			for l := range dead {
				if dead[l] != last[l] {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		tl.Starts = append(tl.Starts, at)
		tl.Dead = append(tl.Dead, dead)
		tl.DeadCount = append(tl.DeadCount, n)
	}

	apply := func(e Event) {
		var links []int
		var delta int
		switch e.Kind {
		case KindLinkDown:
			links, delta = []int{e.Target}, 1
		case KindLinkUp, KindWakeStuck:
			links, delta = []int{e.Target}, -1
		case KindSwitchDown:
			links, delta = incident(e.Target), 1
		case KindSwitchUp:
			links, delta = incident(e.Target), -1
		default:
			return // annotation-only kinds
		}
		for _, l := range links {
			depth[l] += delta
			if depth[l] < 0 {
				// An unmatched recovery (e.g. a wake for a link that was
				// never taken down in this trace) clamps at zero: the link
				// is simply up.
				depth[l] = 0
			}
		}
	}

	events := tr.Events()
	i := 0
	// Fold every t<=0 event into the initial state.
	for ; i < len(events) && events[i].At <= 0; i++ {
		tl.note(events[i])
		apply(events[i])
	}
	snapshot(0)
	for ; i < len(events); i++ {
		e := events[i]
		if e.At >= horizon {
			break
		}
		tl.note(e)
		apply(e)
		// Apply every event sharing this timestamp before snapshotting.
		for i+1 < len(events) && events[i+1].At == e.At {
			i++
			tl.note(events[i])
			apply(events[i])
		}
		snapshot(e.At)
	}
	return tl, nil
}

// note counts an in-horizon event into the timeline's report fields.
func (tl *Timeline) note(e Event) {
	tl.Events++
	if e.Kind == KindWakeStuck {
		tl.MissedWakes++
	}
}
