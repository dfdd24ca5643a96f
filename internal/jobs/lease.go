package jobs

// Owner leases make a journal directory shareable between replicas. Each
// journal <id>.jsonl gets a sibling <id>.lease naming the replica that
// may append to it and when that claim expires; a replica only loads,
// runs, or resumes journals it holds the lease for, so two processes
// pointed at one -jobdir never double-run a job. The protocol is
// deliberately cooperative fencing, not a distributed lock: writes go
// through an O_EXCL-created temp file plus rename, a claimant re-reads
// after writing to confirm it won, and the journal replay already
// tolerates duplicate row records ("first write wins"), so the worst
// case of a lost race is wasted recompute, never a corrupted result.
//
// Lifecycle: Submit and resume claim; every row checkpoint first renews,
// and a runner that finds another live owner there stops without
// appending;
// drain (markInterrupted) and terminal states release with a tombstone
// (Released=true) so survivors can adopt the journal immediately
// instead of waiting out the TTL; a crash leaves the lease to expire.
// ClaimStale is the adoption sweep replicas run periodically: it scans
// for journals whose lease is missing, released, or expired, claims
// them, replays them, and resumes the interrupted ones from their last
// checkpointed row. Options.Owner == "" disables all of it — no lease
// files are written or consulted, preserving single-node behavior.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"netpowerprop/internal/chaos"
)

// leaseFile is the on-disk lease record.
type leaseFile struct {
	// Owner is the claiming replica's stable name (its cluster address).
	Owner string `json:"owner"`
	// Expires is the claim's expiry as Unix nanoseconds; a lease past it
	// is stale and adoptable.
	Expires int64 `json:"expires_unix_nano"`
	// Released marks a clean handoff: the owner finished or drained, and
	// the journal is adoptable immediately.
	Released bool `json:"released,omitempty"`
}

// leasePath is the lease sibling of a journal path.
func leasePath(journalPath string) string {
	return strings.TrimSuffix(journalPath, ".jsonl") + ".lease"
}

// leasesEnabled reports whether this manager participates in the lease
// protocol.
func (m *Manager) leasesEnabled() bool { return m.owner != "" }

// readLease loads a journal's lease; ok is false when no lease exists
// (never written, or unreadable — treated as absent, i.e. adoptable).
func (m *Manager) readLease(journalPath string) (lf leaseFile, ok bool) {
	b, err := os.ReadFile(leasePath(journalPath))
	if err != nil {
		return leaseFile{}, false
	}
	if err := json.Unmarshal(b, &lf); err != nil {
		m.log.Warn("lease unreadable", "path", leasePath(journalPath), "error", err)
		return leaseFile{}, false
	}
	return lf, true
}

// heldByOther reports whether another live replica currently owns the
// journal: a lease that exists, is not released, has not expired, and
// names someone else. A replica's own lease never blocks it — after a
// crash-restart under the same name, the process reclaims its journals
// without waiting out its own TTL.
func (m *Manager) heldByOther(journalPath string) bool {
	lf, ok := m.readLease(journalPath)
	if !ok || lf.Released || lf.Owner == m.owner {
		return false
	}
	return lf.Expires > m.clock.Now().UnixNano()
}

// writeLease atomically replaces the journal's lease with this manager's
// claim (or release tombstone) via temp file + rename.
func (m *Manager) writeLease(journalPath string, released bool) error {
	lf := leaseFile{
		Owner:    m.owner,
		Expires:  m.clock.Now().Add(m.leaseTTL).UnixNano(),
		Released: released,
	}
	b, err := json.Marshal(lf)
	if err != nil {
		return err
	}
	if ferr := m.chaos.Error(chaos.SiteLeaseWrite, m.owner); ferr != nil {
		return ferr
	}
	path := leasePath(journalPath)
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// claimLease attempts to take ownership of a journal. It refuses while
// another replica holds a live lease, then writes its claim and re-reads
// to confirm it won any rename race. Always true with leases disabled.
func (m *Manager) claimLease(journalPath string) bool {
	if !m.leasesEnabled() {
		return true
	}
	if m.heldByOther(journalPath) {
		return false
	}
	if err := m.writeLease(journalPath, false); err != nil {
		m.log.Warn("lease claim failed", "path", journalPath, "error", err)
		return false
	}
	lf, ok := m.readLease(journalPath)
	return ok && lf.Owner == m.owner && !lf.Released
}

// renewLease fences and extends this manager's claim before each row
// append, so a live runner's lease never expires between rows. It writes
// nothing and reports false when another live replica holds the lease:
// that replica adopted the journal, and this runner must stop. Always
// true with leases disabled.
func (m *Manager) renewLease(journalPath string) bool {
	if !m.leasesEnabled() {
		return true
	}
	if m.heldByOther(journalPath) {
		return false
	}
	if err := m.writeLease(journalPath, false); err != nil {
		m.log.Warn("lease renew failed", "path", journalPath, "error", err)
	}
	return true
}

// releaseLease writes the handoff tombstone: the journal is immediately
// adoptable by any replica. Called on drain and on terminal states.
func (m *Manager) releaseLease(journalPath string) {
	if !m.leasesEnabled() {
		return
	}
	if err := m.writeLease(journalPath, true); err != nil {
		m.log.Warn("lease release failed", "path", journalPath, "error", err)
	}
}

// adopt is the lease-gated replay used by Open's recovery sweep, Submit
// and ClaimStale: claim before replaying (a journal another live replica
// holds yields a nil job), and release again right away when the
// replayed job turned out to be terminal (terminal journals need
// ownership only for the replay itself).
func (m *Manager) adopt(path string) (*job, error) {
	if !m.claimLease(path) {
		return nil, nil
	}
	j, err := m.recoverFile(path)
	if err != nil {
		return nil, err
	}
	if j.stateNow().terminal() {
		m.releaseLease(path)
	}
	return j, nil
}

// takeOver adopts a journal this manager did not hold, counts and logs
// the adoption, and resumes the job if it was interrupted. It returns a
// nil job when another live replica holds the journal's lease.
func (m *Manager) takeOver(path string) (*job, error) {
	j, err := m.adopt(path)
	if j == nil || err != nil {
		return nil, err
	}
	m.adopted.Inc()
	st := j.stateNow()
	m.log.Info("job adopted", "job", j.id, "state", string(st), "owner", m.owner, "trace", j.trace)
	if st == StateInterrupted {
		m.resume(j)
	}
	return j, nil
}

// ClaimStale is the adoption sweep: scan the shared journal directory
// for jobs this manager does not hold whose lease is missing, released,
// or expired, claim and replay each, and resume the interrupted ones
// from their last checkpointed row. Returns how many journals were
// adopted. Replicas call it periodically (and once after a peer is
// observed dead) so a crashed or drained replica's durable jobs finish
// on a survivor. No-op with leases disabled or after Close.
func (m *Manager) ClaimStale() int {
	if !m.leasesEnabled() {
		return 0
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return 0
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		m.log.Warn("claim sweep failed", "path", m.dir, "error", err)
		return 0
	}
	adopted := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") ||
			m.get(strings.TrimSuffix(e.Name(), ".jsonl")) != nil {
			continue
		}
		path := filepath.Join(m.dir, e.Name())
		j, err := m.takeOver(path)
		if err != nil {
			m.log.Warn("journal adoption failed", "path", path, "error", err)
		} else if j != nil {
			adopted++
		}
	}
	return adopted
}
