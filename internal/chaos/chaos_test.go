package chaos

import (
	"context"
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"

	"netpowerprop/internal/obs"
)

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

func TestDisarmedIsNoop(t *testing.T) {
	t.Parallel()
	var p *Plan
	if f := p.Fire(SiteJournalWrite, ""); f.Active() {
		t.Fatalf("disarmed Fire injected %+v", f)
	}
	if err := p.Error(SiteJournalFsync, ""); err != nil {
		t.Fatalf("disarmed Error: %v", err)
	}
	if err := p.Sleep(context.Background(), SiteForwardRTT, "x"); err != nil {
		t.Fatalf("disarmed Sleep: %v", err)
	}
	if p.Drop(SiteGossipDeliver, "x") {
		t.Fatal("disarmed Drop fired")
	}
	if n, err := p.FileWrite(SiteJournalWrite, "", 42); n != 42 || err != nil {
		t.Fatalf("disarmed FileWrite = (%d, %v)", n, err)
	}
	if n := p.Injections(); n != 0 {
		t.Fatalf("disarmed Injections = %d", n)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	t.Parallel()
	for _, spec := range []string{
		"",                                       // no rules
		"seed=5",                                 // no rules
		"site=nope kind=error",                   // unknown site
		"site=jobs.journal.write kind=fsyncfail", // kind not honored by site
		"site=cluster.forward.rtt kind=latency",  // latency needs delay
		"site=cluster.gossip.deliver kind=partition", // partition needs peer
		"site=jobs.journal.write kind=error prob=1.5",
		"site=jobs.journal.write kind=error bogus=1",
		"seed=abc;site=jobs.journal.write kind=error",
		"site=jobs.journal.write kind=error count=-1", // negative would mean unlimited
		"site=jobs.journal.write kind=error after=-1", // negative would never inject
		"site=jobs.journal.write kind=error until=-3", // negative would mean no end
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	t.Parallel()
	spec := "seed=7;site=cluster.forward.rtt kind=latency prob=0.4 count=30 delay=120ms;site=jobs.journal.fsync kind=fsyncfail count=1 after=4"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip drifted:\n%s\n%s", p.String(), p2.String())
	}
}

func TestCountAndAfterWindows(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail count=2 after=3")
	var got []int
	for i := 0; i < 10; i++ {
		if p.Error(SiteJournalFsync, "") != nil {
			got = append(got, i)
		}
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("injections at %v, want [3 4]", got)
	}
}

func TestUntilWindow(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail after=2 until=4")
	var got []int
	for i := 0; i < 8; i++ {
		if p.Error(SiteJournalFsync, "") != nil {
			got = append(got, i)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("injections at %v, want [2 3]", got)
	}
}

// Probabilistic decisions must be a pure function of (seed, rule, hit):
// re-parsing the same spec replays the identical injection sequence, and
// a different seed picks a different one.
func TestSeededDeterminism(t *testing.T) {
	t.Parallel()
	sequence := func(spec string) string {
		p := mustParse(t, spec)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if p.Drop(SiteGossipDeliver, "peer") {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	const spec = "seed=42;site=cluster.gossip.deliver kind=drop prob=0.3"
	a, b := sequence(spec), sequence(spec)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("prob=0.3 over 200 hits should mix hits and misses: %s", a)
	}
	if c := sequence("seed=43;site=cluster.gossip.deliver kind=drop prob=0.3"); c == a {
		t.Fatal("different seed produced identical sequence")
	}
}

func TestPeerMatcher(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=cluster.gossip.deliver kind=partition peer=http://a")
	if !p.Drop(SiteGossipDeliver, "http://a") {
		t.Fatal("matching peer not dropped")
	}
	if p.Drop(SiteGossipDeliver, "http://b") {
		t.Fatal("non-matching peer dropped")
	}
}

func TestKindMaskDoesNotBurnForeignRules(t *testing.T) {
	t.Parallel()
	// A latency rule must not be consumed (or injected) by Error/Drop
	// callers that cannot honor it.
	p := mustParse(t, "seed=1;site=cluster.gossip.send kind=latency delay=1ms count=1")
	if err := p.Error(SiteGossipSend, ""); err != nil {
		t.Fatalf("Error consumed a latency rule: %v", err)
	}
	if p.Drop(SiteGossipSend, "") {
		t.Fatal("Drop consumed a latency rule")
	}
	ctx := context.Background()
	start := time.Now()
	if err := p.Sleep(ctx, SiteGossipSend, ""); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency rule did not fire for Sleep")
	}
}

func TestSleepHonorsContext(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=cluster.forward.rtt kind=latency delay=10s")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Sleep(ctx, SiteForwardRTT, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored context cancellation")
	}
}

func TestFileWriteKinds(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=jobs.journal.write kind=shortwrite count=1")
	n, err := p.FileWrite(SiteJournalWrite, "", 100)
	if n != 50 || !errors.Is(err, ErrInjected) {
		t.Fatalf("shortwrite = (%d, %v), want (50, ErrInjected)", n, err)
	}
	if n, err := p.FileWrite(SiteJournalWrite, "", 100); n != 100 || err != nil {
		t.Fatalf("count=1 exhausted but FileWrite = (%d, %v)", n, err)
	}

	p = mustParse(t, "seed=1;site=jobs.journal.write kind=enospc count=1")
	_, err = p.FileWrite(SiteJournalWrite, "", 100)
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("enospc fault = %v, want ENOSPC and ErrInjected", err)
	}
}

// A plan's per-site counters surface through Instrument: evaluations
// count every armed hit, injections only the faults that fired, and a
// nil plan renders the same families as zeros.
func TestCounts(t *testing.T) {
	t.Parallel()
	p := mustParse(t, "seed=1;site=jobs.journal.fsync kind=fsyncfail count=1")
	p.Error(SiteJournalFsync, "")
	p.Error(SiteJournalFsync, "")
	if got := p.Injections(); got != 1 {
		t.Fatalf("Injections() = %d, want 1", got)
	}
	reg := obs.NewRegistry()
	p.Instrument(reg)
	var b strings.Builder
	reg.Render(&b)
	for _, want := range []string{
		"netpowerprop_chaos_armed 1\n",
		`netpowerprop_chaos_evaluations_total{site="jobs.journal.fsync"} 2` + "\n",
		`netpowerprop_chaos_injected_total{site="jobs.journal.fsync"} 1` + "\n",
		`netpowerprop_chaos_evaluations_total{site="jobs.journal.write"} 0` + "\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("armed exposition lacks %q:\n%s", want, b.String())
		}
	}

	reg = obs.NewRegistry()
	(*Plan)(nil).Instrument(reg)
	b.Reset()
	reg.Render(&b)
	for _, want := range []string{
		"netpowerprop_chaos_armed 0\n",
		`netpowerprop_chaos_evaluations_total{site="jobs.journal.fsync"} 0` + "\n",
		`netpowerprop_chaos_injected_total{site="serve.response.write"} 0` + "\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("nil-plan exposition lacks %q:\n%s", want, b.String())
		}
	}
}
