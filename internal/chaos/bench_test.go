package chaos

import "testing"

// The disarmed fast path must be allocation-free — exactly zero, not
// "within tolerance": these evaluations sit on the serve hot path. Not
// parallel: AllocsPerRun counts every goroutine's allocations.
func TestDisarmedFireAllocatesNothing(t *testing.T) {
	var p *Plan
	allocs := testing.AllocsPerRun(1000, func() {
		if f := p.Fire(SiteResponseWrite, ""); f.Active() {
			t.Fatal("disarmed site injected")
		}
		if err := p.Error(SiteJournalFsync, ""); err != nil {
			t.Fatal("disarmed site errored")
		}
		if p.Drop(SiteGossipDeliver, "http://peer:1") {
			t.Fatal("disarmed site dropped")
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed evaluations allocate %g times per run, want 0", allocs)
	}
}

// BenchmarkChaosDisarmed guards the "disarmed failpoints add 0
// allocs/op" claim: a site evaluation on a nil plan must be a single
// nil check, nothing more.
func BenchmarkChaosDisarmed(b *testing.B) {
	var p *Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f := p.Fire(SiteResponseWrite, ""); f.Active() {
			b.Fatal("disarmed site injected")
		}
	}
}
