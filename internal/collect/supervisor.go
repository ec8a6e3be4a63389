package collect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// Crashpoint names a place in the server's commit path where the
// supervisor may kill the process. The points bracket every durability
// decision: before the WAL sync (the un-synced entry dies with the
// process), after it (durable but unacknowledged), after the ACK (durable
// and acknowledged — the client must not need to care), and on either side
// of compaction's atomic rename commit point.
type Crashpoint int

const (
	// CrashBeforeWALSync kills after the WAL append, before the sync
	// barrier: the entry is an un-synced tail and dies (torn) with the
	// process. The client never got an ACK, so nothing acknowledged is
	// lost — this is the point that would expose a sync-after-ACK bug.
	CrashBeforeWALSync Crashpoint = iota
	// CrashAfterWALSync kills between the sync barrier and the ACK: the
	// verb is durable but the client treats the upload as failed and
	// re-sends; the idempotent merge makes the re-send harmless.
	CrashAfterWALSync
	// CrashAfterAck kills once the ACK is on the wire: the client moves on
	// and recovery alone must reproduce the acknowledged state.
	CrashAfterAck
	// CrashDuringCompaction kills after snapshot.tmp is written and synced
	// but before the rename commit point: recovery must ignore the orphan
	// tmp and replay the old snapshot + full WAL.
	CrashDuringCompaction
	// CrashAfterSnapshotInstall kills after the rename but before the WAL
	// truncation: recovery replays the WAL against a snapshot that already
	// contains its effects, which must be a no-op.
	CrashAfterSnapshotInstall

	numCrashpoints
)

// NumCrashpoints is the number of server-level crashpoints, exported for
// the fleet supervisor: its per-shard kill draws cover these five plus its
// own fleet-level points (handoff and rebalance aborts) without changing
// this enum — extending the enum would shift every existing crashpoint
// draw and silently re-seed the pinned server-crash golden.
const NumCrashpoints = int(numCrashpoints)

// String names the crashpoint for logs and experiment tables.
func (p Crashpoint) String() string {
	switch p {
	case CrashBeforeWALSync:
		return "before-wal-sync"
	case CrashAfterWALSync:
		return "after-wal-sync"
	case CrashAfterAck:
		return "after-ack"
	case CrashDuringCompaction:
		return "during-compaction"
	case CrashAfterSnapshotInstall:
		return "after-snapshot-install"
	default:
		return fmt.Sprintf("crashpoint(%d)", int(p))
	}
}

// CrashFaults calibrates server crash injection. The zero value never
// kills. A kill is scheduled every KillEveryMin..KillEveryMax recognised
// requests (uniform draw), at a uniformly drawn crashpoint.
type CrashFaults struct {
	KillEveryMin int
	KillEveryMax int
}

// Enabled reports whether crash injection is armed.
func (c CrashFaults) Enabled() bool { return c.KillEveryMin > 0 || c.KillEveryMax > 0 }

// SupervisorConfig calibrates a supervised, durable collection server.
type SupervisorConfig struct {
	// CompactEvery passes through to ServerConfig.
	CompactEvery int
	// Crash schedules injected kills; requires Rng when enabled.
	Crash CrashFaults
	// Rng drives the kill schedule, the crashpoint draws and (via a Split
	// child) the store's torn-tail lengths. With Workers:1 the whole
	// crash/recover history is a pure function of this stream; with
	// parallel workers the request interleaving — and therefore which
	// request each kill lands on — is scheduling-dependent, and only the
	// invariants (no acknowledged loss, canonical recovery) are stable.
	Rng *sim.Rand
	// Store, when set, resumes an existing medium (a prior supervisor's
	// state); nil creates a fresh one.
	Store *CrashStore
	// Ledger, when set, is the acked ledger every incarnation books into;
	// a fleet hands one ledger to all its shards so that they share one
	// dedup stage in front of OnRecord. Nil makes a fresh one.
	Ledger *Ledger
	// OnRecord passes through to ServerConfig.OnRecord for every
	// incarnation, restarts included. Every incarnation shares the
	// supervisor's ledger, so a restart never re-taps a record an earlier
	// incarnation acked or tapped; the one duplicate source that remains
	// (a resumed Store's empty ledger) is described there.
	OnRecord func(deviceID string, r core.Record)
	// Query passes through to ServerConfig.Query for every incarnation,
	// restarts included, so the live query tier survives injected crashes
	// (the answers come from the OnRecord-fed accumulators, which outlive
	// any one server incarnation).
	Query func(name string, args []string) (string, error)
	// OnCrash, when set, runs after an injected kill has been counted but
	// before the replacement server is constructed — the window in which a
	// real operator would fail the dead shard's data over to a peer. It runs
	// on the dying incarnation's goroutine with no supervisor locks held, so
	// it may read the store (RecoverState) and talk to other servers; it
	// must not call back into this supervisor's request path. Not invoked
	// when the supervisor is already disarmed (shutdown).
	OnCrash func()
	// Replicate passes through to ServerConfig.Replicate for every
	// incarnation: the write-time quorum hook a fleet shard uses to forward
	// committed state to its rendezvous successors before acknowledging.
	// See ServerConfig.Replicate for the calling contract.
	Replicate func(op, deviceID string, state []byte, off int) bool
}

// Supervisor owns a durable collection server across injected crashes: it
// schedules kills from its RNG, lets the dying incarnation tear its store,
// then recovers the store (snapshot + WAL replay) and rebinds the listener
// on the same address. Every incarnation books its uploads, compactions,
// handoffs and acked records into the supervisor's one ledger, so the
// accounting spans restarts without being copied out of a dying server. It
// is the process supervisor a real collection service would run under,
// with the restart loop made deterministic.
type Supervisor struct {
	ds    *Dataset
	addr  string
	store *CrashStore
	scfg  ServerConfig
	crash CrashFaults

	// cur is the live incarnation; armed holds 1+Crashpoint when a kill is
	// pending (0 means none). Both are lock-free so a handler holding its
	// server's mutex can consult them without ordering against mu.
	cur   atomic.Pointer[Server]
	armed atomic.Int32

	mu        sync.Mutex
	rng       *sim.Rand
	onCrash   func()
	disarmed  bool
	untilKill int
	point     Crashpoint
	armedAge  int
	crashes   int
	restarts  int
	pointHits [numCrashpoints]int
	lastErr   error
}

// NewSupervisor starts a supervised durable server on addr. The dataset is
// reset to whatever the store recovers (empty for a fresh store).
func NewSupervisor(addr string, ds *Dataset, cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Crash.Enabled() && cfg.Rng == nil {
		return nil, fmt.Errorf("collect: crash injection needs a sim.Rand")
	}
	sup := &Supervisor{
		ds:      ds,
		crash:   cfg.Crash,
		rng:     cfg.Rng,
		onCrash: cfg.OnCrash,
	}
	sup.store = cfg.Store
	if sup.store == nil {
		var storeRng *sim.Rand
		if cfg.Rng != nil {
			// The torn-tail draws get their own stream so a crash's damage
			// does not perturb the kill schedule.
			storeRng = cfg.Rng.Split()
		}
		sup.store = NewCrashStore(storeRng)
	}
	sup.scfg = ServerConfig{
		CompactEvery: cfg.CompactEvery,
		Store:        sup.store,
		OnRecord:     cfg.OnRecord,
		Query:        cfg.Query,
		Replicate:    cfg.Replicate,
		monitor:      sup,
		ledger:       cfg.Ledger,
	}
	if sup.scfg.ledger == nil {
		sup.scfg.ledger = NewLedger()
	}
	srv, err := NewServerWith(addr, ds, sup.scfg)
	if err != nil {
		return nil, err
	}
	sup.addr = srv.Addr() // pin the resolved port: restarts rebind it
	sup.cur.Store(srv)
	if sup.crash.Enabled() {
		sup.mu.Lock()
		sup.drawKillLocked()
		sup.mu.Unlock()
	}
	return sup, nil
}

// Addr returns the pinned listen address (stable across restarts).
func (s *Supervisor) Addr() string { return s.addr }

// Store returns the durable medium shared by every incarnation.
func (s *Supervisor) Store() *CrashStore { return s.store }

// Err returns the first restart failure, if any.
func (s *Supervisor) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Crashes returns how many injected kills fired; Restarts how many
// incarnations came back up (equal unless a restart failed or Close raced
// a crash).
func (s *Supervisor) Crashes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}

// Restarts returns the number of successful restarts.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Settle cancels any armed-but-unfired kill and waits (bounded host time)
// for an in-flight crash-restart cycle to complete, reporting whether the
// supervisor reached quiescence. Callers must first stop new kills from
// arming (a fleet does so by taking the shard out of its kill draw). Settle
// before Close when retiring a shard whose crash/restart ledger must stay
// balanced: Close disarms, and serverDied skips the restart of a disarmed
// supervisor.
func (s *Supervisor) Settle(timeout time.Duration) bool {
	//symlint:allow determinism host-time settle for a real TCP shard's restart; the simulation never observes it
	deadline := time.Now().Add(timeout)
	for {
		// Cancel a pending kill: the shard is being retired, so firing it
		// now would only manufacture a crash nobody needs to survive.
		s.armed.Store(0)
		if s.settledNow() {
			return true
		}
		//symlint:allow determinism host-time settle for a real TCP shard's restart; the simulation never observes it
		if time.Now().After(deadline) {
			return false
		}
		//symlint:allow determinism host-time settle for a real TCP shard's restart; the simulation never observes it
		time.Sleep(2 * time.Millisecond)
	}
}

// settledNow reports whether no kill is armed, no incarnation is mid-death,
// and every counted crash has its restart. A nil current incarnation
// (failed restart or shutdown) counts as settled: nothing further will
// happen, and the caller's Err check owns that story.
func (s *Supervisor) settledNow() bool {
	if s.armed.Load() != 0 {
		return false
	}
	srv := s.cur.Load()
	if srv == nil {
		return true
	}
	dying := srv.isDead()
	s.mu.Lock()
	defer s.mu.Unlock()
	return !dying && s.crashes == s.restarts
}

// Close disarms the supervisor and shuts the live incarnation down.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	s.disarmed = true
	s.mu.Unlock()
	if srv := s.cur.Load(); srv != nil {
		return srv.Close()
	}
	return nil
}

// Uploads returns the successful uploads booked into the supervisor's
// ledger: by every incarnation, and by every shard sharing the ledger.
func (s *Supervisor) Uploads() int { return int(s.scfg.ledger.uploads.Load()) }

// Compactions returns the snapshot compactions booked into the ledger.
func (s *Supervisor) Compactions() int { return int(s.scfg.ledger.compactions.Load()) }

// Handoffs returns the peer handoffs accepted, as booked into the ledger.
func (s *Supervisor) Handoffs() int { return int(s.scfg.ledger.handoffs.Load()) }

// Stream returns a copy of a device's live chunk stream on the current
// incarnation, if any — the fleet supervisor reads it when rebalancing a
// device onto a newly joined shard.
func (s *Supervisor) Stream(id string) ([]byte, bool) {
	srv := s.cur.Load()
	if srv == nil {
		return nil, false
	}
	return srv.Stream(id)
}

// AckedKeys returns the serialized form of every record the ledger holds
// as acknowledged for a device (by any incarnation, or any shard sharing
// the ledger), sorted — the exact wire-level ground truth for the
// no-acknowledged-data-loss invariant across crashes. Records only tapped
// unacked are left out.
func (s *Supervisor) AckedKeys(id string) []string { return s.scfg.ledger.keys(id) }

// AckedDevices returns every device the ledger holds an acknowledged
// record for, sorted.
func (s *Supervisor) AckedDevices() []string { return s.scfg.ledger.devices() }

// RepointWindow is how many further requests an armed kill may wait for
// its crashpoint before being repointed at the commit path: a kill drawn
// for a compaction crashpoint stalls forever if the WAL never reaches the
// compaction bound, and a stalled kill would silently disable injection —
// or, kept too long, quietly halve the effective kill rate. The fleet
// supervisor applies the same window to the kills it arms on its shards.
const RepointWindow = 16

// beginRequest is the server's per-request hook (called with no locks
// held). It advances the kill countdown and arms the crashpoint atomics
// when the countdown reaches zero.
func (s *Supervisor) beginRequest(srv *Server) {
	if s.cur.Load() != srv {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disarmed || !s.crash.Enabled() || s.rng == nil {
		return
	}
	if s.armed.Load() != 0 {
		// A kill is pending; if its crashpoint never comes up (compaction
		// that never triggers), deterministically repoint it at the next
		// WAL sync so injection cannot stall.
		s.armedAge++
		if s.armedAge > RepointWindow && s.point != CrashBeforeWALSync {
			if s.armed.CompareAndSwap(1+int32(s.point), 1+int32(CrashBeforeWALSync)) {
				s.point = CrashBeforeWALSync
				s.armedAge = 0
			}
		}
		return
	}
	if s.untilKill <= 0 {
		return // consumed, waiting for serverDied to redraw
	}
	s.untilKill--
	if s.untilKill == 0 {
		s.armedAge = 0
		s.armed.Store(1 + int32(s.point))
	}
}

// atCrashpoint reports whether the armed kill fires here, consuming it.
// Lock-free: handlers call this while holding their server's mutex.
func (s *Supervisor) atCrashpoint(srv *Server, p Crashpoint) bool {
	if s.cur.Load() != srv {
		return false
	}
	return s.armed.CompareAndSwap(1+int32(p), 0)
}

// InjectKill arms a kill at the given crashpoint on the live incarnation,
// the fleet supervisor's entry point: fleet-level subset kills arrive here
// instead of through this supervisor's own (disabled) schedule. Returns
// false when a kill is already armed, the supervisor is disarmed, or no
// incarnation is live — the caller's draw is simply consumed.
func (s *Supervisor) InjectKill(p Crashpoint) bool {
	if p < 0 || p >= numCrashpoints {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disarmed || s.cur.Load() == nil {
		return false
	}
	if !s.armed.CompareAndSwap(0, 1+int32(p)) {
		return false
	}
	s.point = p
	s.armedAge = 0
	return true
}

// KillArmed reports whether an injected kill is armed but not yet fired.
func (s *Supervisor) KillArmed() bool { return s.armed.Load() != 0 }

// RepointKill moves an armed-but-stalled kill to a different crashpoint —
// the fleet supervisor's analogue of the internal RepointWindow logic: a
// kill armed for a crashpoint the shard never reaches (compaction on a
// quiet shard) would otherwise wait forever. Returns false when nothing is
// armed or the kill already points there.
func (s *Supervisor) RepointKill(p Crashpoint) bool {
	if p < 0 || p >= numCrashpoints {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.armed.Load()
	if cur == 0 || Crashpoint(cur-1) == p {
		return false
	}
	if !s.armed.CompareAndSwap(cur, 1+int32(p)) {
		return false
	}
	s.point = p
	s.armedAge = 0
	return true
}

// drawKillLocked schedules the next kill: a request countdown in
// [KillEveryMin, KillEveryMax] and a uniformly drawn crashpoint. Caller
// holds s.mu.
func (s *Supervisor) drawKillLocked() {
	lo, hi := s.crash.KillEveryMin, s.crash.KillEveryMax
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	s.untilKill = lo + s.rng.Intn(hi-lo+1)
	s.point = Crashpoint(s.rng.Intn(int(numCrashpoints)))
}

// serverDied is called by the dying incarnation (no locks held) after it
// marked itself dead, closed its listener and crashed the store. The
// supervisor counts the crash, recovers the store by constructing a
// replacement on the pinned address, and rearms the kill schedule. The
// dead incarnation's accounting is already in the shared ledger.
func (s *Supervisor) serverDied() {
	s.mu.Lock()
	s.crashes++
	s.pointHits[s.point]++
	disarmed := s.disarmed
	s.mu.Unlock()

	if disarmed {
		s.cur.Store(nil)
		return
	}

	if s.onCrash != nil {
		// Crash handoff window: the store holds the dead incarnation's
		// synced state and no replacement is listening yet.
		s.onCrash()
	}

	var next *Server
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		next, err = NewServerWith(s.addr, s.ds, s.scfg)
		if err == nil {
			break
		}
	}

	s.mu.Lock()
	if err != nil {
		s.lastErr = fmt.Errorf("collect: supervisor restart: %w", err)
		s.cur.Store(nil)
		s.mu.Unlock()
		return
	}
	if s.disarmed {
		// Close raced the restart; do not leak the new incarnation.
		s.cur.Store(nil)
		s.mu.Unlock()
		_ = next.Close()
		return
	}
	s.restarts++
	s.cur.Store(next)
	if s.crash.Enabled() {
		// Fleet-injected kills (InjectKill) arrive on supervisors whose own
		// schedule — and RNG — is absent; only a self-scheduling supervisor
		// redraws here.
		s.drawKillLocked()
	}
	s.mu.Unlock()
}
