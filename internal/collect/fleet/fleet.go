package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// Config calibrates a collection fleet.
type Config struct {
	// Servers is the initial shard count. 1 is a one-member fleet with no
	// router in the path: clients talk to the lone shard, whose supervisor
	// schedules its own kills from Rng — the same construction and RNG
	// consumption as a plain collect.Supervisor.
	Servers int
	// CompactEvery passes through to every shard's SupervisorConfig.
	CompactEvery int
	// Crash schedules fleet-level kills: every KillEveryMin..KillEveryMax
	// routed requests a non-empty RNG-drawn subset of {shards..., router}
	// dies. Requires Rng when enabled.
	Crash collect.CrashFaults
	// Rng drives the kill schedule, subset draws, crashpoint draws, handoff
	// and rebalance abort cuts, and (via Split children) every shard store's
	// torn-tail lengths. Salt it off the study seed (collectorSeedSalt) so
	// fleet adversity never perturbs device streams.
	Rng *sim.Rand
	// OnRecord taps every record the fleet commits, once per fleet: every
	// shard, joiners included, books into the fleet's one acked ledger, so
	// a record is tapped by whichever shard commits it first and never by
	// the replicas, crash handoffs or rebalances that take custody of it
	// later. Calls are serialised across shards under a fleet-level mutex;
	// otherwise the ServerConfig.OnRecord contract applies.
	OnRecord func(deviceID string, r core.Record)
	// JoinAfter, when >0, adds one shard to the fleet after that many routed
	// requests (a mid-study scale-up with live rebalancing). LeaveAfter,
	// when >0, retires one shard after that many routed requests (draining
	// its devices to the survivors first). Both are one-shot and need
	// Servers > 1 (a one-member fleet has no router to count requests).
	JoinAfter  int
	LeaveAfter int

	// Replicate is the write-time replication factor R: every acknowledged
	// CHUNK is durable on R shards (capped at the live membership)
	// before the OK goes on the wire. 0 defaults to 3; 1 switches write-time
	// replication, heartbeats and quorum gating off entirely — byte-exact
	// the pre-quorum fleet. Validated but then forced to 1 (with Quorum)
	// when Servers is 1.
	Replicate int
	// Quorum is the write quorum W: the ACK requires W of the R copies
	// (primary included) WAL-synced. 0 defaults to min(2, R). When fewer
	// than W shards are reachable the fleet refuses writes with a retryable
	// below-quorum ERR instead of making a durability promise it cannot
	// keep. Must satisfy 1 <= W <= R.
	Quorum int
	// BeatRng drives heartbeat jitter. It must be a dedicated stream (salt
	// it off the study seed) so beat cadence never perturbs kill schedules
	// or device streams; nil runs beats on a fixed, jitter-free cadence.
	BeatRng *sim.Rand
	// BeatEvery is the heartbeat period in routed requests: every BeatEvery
	// (+ jitter) requests the fleet probes every shard with a PING. The
	// detector is request-driven — no background goroutine, no host-time
	// clock — so a quiet fleet draws nothing and leaks nothing. Default 8.
	BeatEvery int
	// SuspectAfter is the consecutive-miss count (beats and routed-traffic
	// observations combined) at which a shard is suspected: routed around
	// and skipped as a replication target, but never declared dead. A
	// successful probe clears it. Default 3.
	SuspectAfter int
	// ConfirmAfter is the consecutive-miss count at which a suspected shard
	// is confirmed dead — but only with process-level evidence (its power
	// was cut or its supervisor's restart loop failed for good): misses
	// alone, however many, never kill a healthy shard. Confirmation bumps
	// the epoch and triggers anti-entropy repair. Default 12.
	ConfirmAfter int
}

// member is one shard: a supervised durable server with its own dataset and
// crash store. Members are never removed from the slice — a departed shard
// keeps live=false and its dataset, and what it acknowledged stays in the
// fleet's ledger, so nothing it ever acknowledged can silently drop out of
// the invariant checks or the merged dataset.
type member struct {
	name  string
	sup   *collect.Supervisor
	ds    *collect.Dataset
	store *collect.CrashStore
	live  bool
	// armedAt is the routed-request count when a fleet kill was armed on
	// this shard, for the stall-repoint window.
	armedAt int

	// Failure-detector state (all under the fleet mutex). misses counts
	// consecutive failed probes/observations; suspected marks the shard
	// routed-around; cut marks a permanent power cut (the process is gone,
	// its dataset with it — only its acked records survive in the ledger,
	// as the promise the replicas must now keep); partitioned blocks the
	// router (and the router-co-located beat prober) from reaching an
	// otherwise healthy shard.
	misses      int
	suspected   bool
	cut         bool
	partitioned bool
}

// target is a replication destination snapshot (taken under the fleet
// mutex, used after it is released).
type target struct {
	name, addr string
}

// Supervisor owns a sharded collection fleet across injected crashes: N
// supervised shards behind a device-hash router, fleet-level kill-subset
// injection, crash handoff from dying shards to surviving peers, and live
// join/leave rebalancing. The lifted PR 4 invariant it exists to defend:
// every record any incarnation of any shard ever acknowledged appears
// exactly once in the merged dataset.
type Supervisor struct {
	cfg  Config
	addr string
	// ledger is the acked ledger every shard books into; first is the first
	// shard's supervisor, through which it is read.
	ledger *collect.Ledger
	first  *collect.Supervisor

	tapMu sync.Mutex

	// routerMu serializes router restarts: two kills fired in quick
	// succession (untilKill can be drawn as low as 1) would otherwise race
	// two restart goroutines binding the same pinned address — the loser
	// burns its whole rebind budget on EADDRINUSE and reports a spurious
	// fleet error. Serialized, the second restart kills the first's fresh
	// incarnation and rebinds: two kills, two restarts, one address.
	routerMu sync.Mutex

	// replicateR/writeW are the resolved R/W (1/1 when replication is off);
	// the beat* fields are the resolved failure-detector calibration.
	replicateR   int
	writeW       int
	beatEvery    int
	suspectAfter int
	confirmAfter int

	mu      sync.Mutex
	rng     *sim.Rand
	beatRng *sim.Rand
	members []*member
	// router is nil on a one-member fleet (Servers==1), which has no
	// routed requests, fleet kill draws, membership changes or detector —
	// and after Close or a failed router restart.
	router         *Router
	epoch          int
	disarmed       bool
	requests       int
	untilKill      int
	untilBeat      int
	beating        bool
	belowQuorum    bool
	joinDone       bool
	leaveDone      bool
	routerKills    int
	routerRestarts int
	handoffs       int
	handoffFails   int
	aborted        int
	rebalances     int
	migrated       int
	suspicions     int
	falseSusp      int
	confirmedDead  int
	repairs        int
	degradedReqs   int
	degradedWins   int
	abortHandoff   map[*member]bool
	abortRebalance bool
	lastErr        error
}

// New starts a fleet. It builds the shards serially — store RNGs split off
// cfg.Rng in shard order, so the layout is a pure function of the seed —
// then, for Servers>1, binds the router in front of them. Servers==1 is a
// one-member fleet with no router: its lone shard is the client-facing
// server and schedules its own kills.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Servers < 1 {
		return nil, errors.New("fleet: need at least one server")
	}
	if cfg.Crash.Enabled() && cfg.Rng == nil {
		return nil, errors.New("fleet: crash injection needs a sim.Rand")
	}
	r, w := cfg.Replicate, cfg.Quorum
	if r == 0 {
		r = 3
	}
	if w == 0 {
		if w = 2; w > r {
			w = r
		}
	}
	if r < 1 || w < 1 || w > r {
		return nil, fmt.Errorf("fleet: need 1 <= quorum W (%d) <= replication R (%d)", w, r)
	}
	if cfg.Servers == 1 {
		if cfg.JoinAfter > 0 || cfg.LeaveAfter > 0 {
			return nil, errors.New("fleet: join/leave needs Servers > 1")
		}
		r, w = 1, 1
	}
	f := &Supervisor{
		cfg:          cfg,
		rng:          cfg.Rng,
		beatRng:      cfg.BeatRng,
		replicateR:   r,
		writeW:       w,
		beatEvery:    cfg.BeatEvery,
		suspectAfter: cfg.SuspectAfter,
		confirmAfter: cfg.ConfirmAfter,
		abortHandoff: make(map[*member]bool),
		ledger:       collect.NewLedger(),
	}
	if f.beatEvery <= 0 {
		f.beatEvery = 8
	}
	if f.suspectAfter <= 0 {
		f.suspectAfter = 3
	}
	if f.confirmAfter <= f.suspectAfter {
		f.confirmAfter = 12
	}
	fail := func(err error) (*Supervisor, error) {
		for _, m := range f.members {
			_ = m.sup.Close()
		}
		return nil, err
	}
	for i := 0; i < cfg.Servers; i++ {
		m, err := f.newMemberLocked()
		if err != nil {
			return fail(err)
		}
		f.members = append(f.members, m)
	}
	f.first = f.members[0].sup
	if cfg.Servers == 1 {
		f.addr = f.members[0].sup.Addr()
		return f, nil
	}
	rt, err := newRouter("127.0.0.1:0", f.routerHooks())
	if err != nil {
		return fail(err)
	}
	f.router = rt
	f.addr = rt.Addr() // pinned: router restarts rebind this address
	f.mu.Lock()
	if cfg.Crash.Enabled() {
		f.drawKillLocked()
	}
	if f.quorumOn() {
		f.redrawBeatLocked()
	}
	f.mu.Unlock()
	return f, nil
}

// quorumOn reports whether write-time replication (and with it the failure
// detector and quorum gating) is active. R==1 is the pre-quorum fleet.
func (f *Supervisor) quorumOn() bool { return f.replicateR > 1 }

// routerHooks assembles the callbacks a router incarnation runs on. The
// detector hooks are withheld on the R==1 fleet so that path stays
// byte-identical to the pre-quorum router.
func (f *Supervisor) routerHooks() routerHooks {
	h := routerHooks{route: f.route, begin: f.beginRequest}
	if f.quorumOn() {
		h.gate = f.gate
		h.blocked = f.blockedAddr
		h.observe = f.observe
	}
	return h
}

// newMemberLocked builds one shard (fresh store, fresh dataset, supervised
// server). Behind a router, fleet kills arrive via InjectKill, so the
// shard's own crash schedule stays disabled — its supervisor never draws
// from any RNG. The lone shard of a one-member fleet schedules its own
// kills from the fleet RNG instead, right after its store split, and has
// no peers to hand its data to when it dies.
func (f *Supervisor) newMemberLocked() (*member, error) {
	name := fmt.Sprintf("shard-%02d", len(f.members)+1)
	var storeRng *sim.Rand
	if f.rng != nil {
		storeRng = f.rng.Split()
	}
	m := &member{
		name:  name,
		ds:    collect.NewDataset(),
		store: collect.NewCrashStore(storeRng),
		live:  true,
	}
	scfg := collect.SupervisorConfig{
		CompactEvery: f.cfg.CompactEvery,
		Store:        m.store,
		Ledger:       f.ledger,
	}
	if f.cfg.Servers == 1 {
		scfg.Crash, scfg.Rng = f.cfg.Crash, f.rng
	} else {
		scfg.OnCrash = func() { f.shardCrashed(m) }
	}
	if f.quorumOn() {
		scfg.Replicate = f.replicaHook(m)
	}
	if f.cfg.OnRecord != nil {
		scfg.OnRecord = f.tap
	}
	sup, err := collect.NewSupervisor("127.0.0.1:0", m.ds, scfg)
	if err != nil {
		return nil, err
	}
	m.sup = sup
	return m, nil
}

// tap serialises the shards' record taps onto the caller's OnRecord: one
// server's handlers already serialise under its mutex, but N shards
// acknowledge concurrently.
func (f *Supervisor) tap(deviceID string, r core.Record) {
	f.tapMu.Lock()
	defer f.tapMu.Unlock()
	f.cfg.OnRecord(deviceID, r)
}

// Addr returns the fleet's client-facing address (the router's, pinned
// across router kills; the lone shard's on a one-member fleet).
func (f *Supervisor) Addr() string { return f.addr }

// route resolves a device to its owning live shard's address under the
// current epoch (the router's routing callback).
func (f *Supervisor) route(deviceID string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.ownerLocked(deviceID)
	if m == nil {
		return "", false
	}
	return m.sup.Addr(), true
}

// ownerLocked is rendezvous hashing over the live members (see Owner), in
// two passes: suspected shards are routed around when any unsuspected live
// shard exists (their successors hold the data), but when everything is
// under suspicion the plain rendezvous owner still answers — degraded
// routing beats no routing.
func (f *Supervisor) ownerLocked(deviceID string) *member {
	if m := f.bestLocked(deviceID, false); m != nil {
		return m
	}
	return f.bestLocked(deviceID, true)
}

func (f *Supervisor) bestLocked(deviceID string, includeSuspected bool) *member {
	var best *member
	var bestScore uint64
	for _, m := range f.members {
		if !m.live || m.cut || (m.suspected && !includeSuspected) {
			continue
		}
		s := rendezvousScore(deviceID, m.name)
		if best == nil || s > bestScore || (s == bestScore && m.name < best.name) {
			best, bestScore = m, s
		}
	}
	return best
}

// liveLocked returns the members the fleet can still operate: live and not
// power-cut (a cut shard's process is gone for good; until the detector
// confirms it dead it is a zombie in the membership, not a peer).
func (f *Supervisor) liveLocked() []*member {
	var out []*member
	for _, m := range f.members {
		if m.live && !m.cut {
			out = append(out, m)
		}
	}
	return out
}

// targetsLocked snapshots the live replication destinations other than m.
func (f *Supervisor) targetsLocked(not *member) []target {
	var out []target
	for _, m := range f.liveLocked() {
		if m != not {
			out = append(out, target{name: m.name, addr: m.sup.Addr()})
		}
	}
	return out
}

// availableTargetsLocked is targetsLocked minus suspected shards — the
// destinations a write-time replication round may count toward its quorum.
func (f *Supervisor) availableTargetsLocked(not *member) []target {
	var out []target
	for _, m := range f.liveLocked() {
		if m != not && !m.suspected {
			out = append(out, target{name: m.name, addr: m.sup.Addr()})
		}
	}
	return out
}

// availableLocked counts the shards the fleet can currently make a write
// durable on (live, not cut, not suspected).
func (f *Supervisor) availableLocked() int {
	n := 0
	for _, m := range f.liveLocked() {
		if !m.suspected {
			n++
		}
	}
	return n
}

// memberByAddrLocked resolves a shard address (pinned across restarts) back
// to its member.
func (f *Supervisor) memberByAddrLocked(addr string) *member {
	for _, m := range f.members {
		if m.sup.Addr() == addr {
			return m
		}
	}
	return nil
}

// beginRequest is the router's per-request hook. It advances the fleet kill
// countdown, fires drawn kill subsets, repoints stalled shard kills, and
// triggers the one-shot join/leave rebalances. Returns whether the router
// itself was drawn into this request's kill subset — in which case the old
// router is already dead and a fresh one is listening on the pinned address
// by the time this returns.
func (f *Supervisor) beginRequest() bool {
	var doJoin, doLeave, routerDies bool
	f.mu.Lock()
	if f.disarmed {
		f.mu.Unlock()
		return false
	}
	f.requests++
	if f.cfg.JoinAfter > 0 && !f.joinDone && f.requests >= f.cfg.JoinAfter {
		f.joinDone = true
		doJoin = true
	}
	if f.cfg.LeaveAfter > 0 && !f.leaveDone && f.requests >= f.cfg.LeaveAfter {
		f.leaveDone = true
		doLeave = true
	}
	if f.cfg.Crash.Enabled() {
		for _, m := range f.members {
			// A kill armed for a crashpoint a quiet shard never reaches
			// (compaction, mostly) would wait forever; repoint it at the
			// commit path after the supervisors' own RepointWindow.
			if m.live && m.sup.KillArmed() && f.requests-m.armedAt > collect.RepointWindow {
				if m.sup.RepointKill(collect.CrashBeforeWALSync) {
					m.armedAt = f.requests
				}
			}
		}
		f.untilKill--
		if f.untilKill <= 0 {
			routerDies = f.fireKillsLocked()
			f.drawKillLocked()
		}
	}
	var doBeat bool
	var probes []*member
	if f.quorumOn() {
		f.untilBeat--
		if f.untilBeat <= 0 && !f.beating {
			// One beat round at a time: concurrent requests keep flowing
			// while this one carries the probes (request-driven detector —
			// no goroutine to leak, no host clock to drift).
			f.beating = true
			doBeat = true
			for _, m := range f.members {
				if m.live {
					probes = append(probes, m)
				}
			}
		}
	}
	f.mu.Unlock()
	if doBeat {
		f.runBeat(probes)
	}
	if doJoin {
		if err := f.Join(); err != nil {
			f.setErr(err)
		}
	}
	if doLeave {
		if err := f.Leave(); err != nil {
			f.setErr(err)
		}
	}
	if routerDies {
		f.restartRouter()
	}
	return routerDies
}

// drawKillLocked schedules the next fleet kill countdown.
func (f *Supervisor) drawKillLocked() {
	lo, hi := f.cfg.Crash.KillEveryMin, f.cfg.Crash.KillEveryMax
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	f.untilKill = lo + f.rng.Intn(hi-lo+1)
}

// fireKillsLocked draws a non-empty subset of {live shards..., router} and
// kills it. Shard kills are armed at a drawn crashpoint out of the five
// server-level points plus two fleet-level ones: "during handoff" (the
// shard dies at the commit path and its own crash handoff is then cut short
// partway, as if the dying process lost its failover race too) and "during
// rebalance" (the next join/leave migration aborts partway through its
// plan). Simultaneous kills — several shards, shards plus the router — are
// one mask draw, so they genuinely overlap.
func (f *Supervisor) fireKillsLocked() (routerDies bool) {
	live := f.liveLocked()
	bits := len(live) + 1 // the +1 bit is the router itself
	mask := 1 + f.rng.Intn((1<<bits)-1)
	for i, m := range live {
		if mask&(1<<i) == 0 {
			continue
		}
		k := f.rng.Intn(collect.NumCrashpoints + 2)
		switch {
		case k < collect.NumCrashpoints:
			if m.sup.InjectKill(collect.Crashpoint(k)) {
				m.armedAt = f.requests
			}
		case k == collect.NumCrashpoints:
			// During-handoff crashpoint: kill at the commit path, then cut
			// the dying shard's handoff short after a drawn prefix.
			f.abortHandoff[m] = true
			if m.sup.InjectKill(collect.CrashBeforeWALSync) {
				m.armedAt = f.requests
			}
		default:
			// During-rebalance crashpoint: the next join/leave migration
			// stops partway through its plan.
			f.abortRebalance = true
		}
	}
	if mask&(1<<len(live)) != 0 {
		routerDies = true
		f.routerKills++
	}
	return routerDies
}

// shardCrashed is every shard's OnCrash hook: it runs on the dying
// incarnation's goroutine in the window where the store holds the dead
// shard's synced state and no replacement is listening. It recovers the
// store read-only-in-effect (recovery normalises the medium, which is
// exactly what the restart's own recovery would do — the double recovery is
// byte-identical and write-free) and replicates the acked state to the
// surviving peers.
//
// Handoff is replication, not movement: the source WAL and dataset keep
// everything, so an aborted or failed handoff can lose nothing — the worst
// case is the same record reaching the merge from two shards, which the
// canonical merge deduplicates.
func (f *Supervisor) shardCrashed(m *member) {
	files, _ := collect.RecoverState(m.store)
	f.mu.Lock()
	if f.disarmed || !m.live || len(files) == 0 {
		delete(f.abortHandoff, m)
		f.mu.Unlock()
		return
	}
	targets := f.targetsLocked(m)
	devs := sortedKeys(files)
	cut := len(devs)
	if f.abortHandoff[m] {
		delete(f.abortHandoff, m)
		cut = f.rng.Intn(len(devs))
		f.aborted++
	}
	f.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	for _, dev := range devs[:cut] {
		f.replicate(dev, collect.HandoffLog, files[dev], 0, targets, 1, handoffAttempts)
	}
}

// Per-candidate retry budgets for the two replication callers. Repair-style
// replication (crash handoff, rebalance, anti-entropy) is already safe to
// abandon — the source keeps its copy — so it gives up quickly. Write-time
// replication is holding a client's ACK hostage, so it retries long enough
// (~0.6 s of host time per candidate) to ride out a peer's restart window
// without ever surfacing into simulated time.
const (
	handoffAttempts = 3
	writeAttempts   = 60
)

// replicate offers one device's bytes to targets in rendezvous order (the
// device's truest owners first) until want of them have taken durable
// custody; want <= 0 offers to every target. Each candidate gets bounded
// retries — a peer may itself be mid-restart (simultaneous kills) — and
// each candidate that still refuses counts one HandoffFailure, so a
// two-target round that loses one peer is visible as exactly one failed
// leg, not a lost round. Kind HandoffChunk replicates the chunk data[off:]
// of the stream data; a replica that refuses it as stale gets the whole
// stream on its next attempt, within the same budget. Returns how
// many targets accepted. Crash handoff, join/leave rebalancing,
// anti-entropy repair and write-time quorum replication all funnel
// through here: one audited path, one counter set.
func (f *Supervisor) replicate(dev, kind string, data []byte, off int, targets []target, want, attempts int) int {
	successes := 0
	for _, t := range rendezvousOrder(dev, targets) {
		ok, stale, from := false, false, off
		for attempt := 0; attempt < attempts && !ok; attempt++ {
			if attempt > 0 && !stale {
				// Host-time pause while a real TCP peer rebinds; never
				// observable by the simulation.
				sleep := time.Duration(attempt*attempt) * 2 * time.Millisecond
				if sleep > 10*time.Millisecond {
					sleep = 10 * time.Millisecond
				}
				//symlint:allow determinism host-time backoff towards a real restarting TCP peer
				time.Sleep(sleep)
			}
			var err error
			if kind == collect.HandoffChunk {
				err = collect.HandoffFrom(t.addr, dev, data, from)
			} else {
				err = collect.Handoff(t.addr, dev, kind, data)
			}
			if stale = errors.Is(err, collect.ErrStale); stale {
				from = 0 // a chunk at offset 0 replaces the replica's stream
			}
			ok = err == nil
		}
		f.mu.Lock()
		if ok {
			f.handoffs++
			successes++
		} else {
			f.handoffFails++
		}
		f.mu.Unlock()
		if want > 0 && successes >= want {
			break
		}
	}
	return successes
}

// rendezvousOrder sorts targets by the device's rendezvous preference,
// highest score first (ties toward the lexically smaller name, like Owner).
func rendezvousOrder(dev string, targets []target) []target {
	ordered := append([]target(nil), targets...)
	sort.Slice(ordered, func(i, j int) bool {
		si, sj := rendezvousScore(dev, ordered[i].name), rendezvousScore(dev, ordered[j].name)
		if si != sj {
			return si > sj
		}
		return ordered[i].name < ordered[j].name
	})
	return ordered
}

// Join adds one shard mid-study and rebalances: the epoch bumps first (new
// requests for stolen devices route to the joiner immediately; uploaders
// renegotiate through OFFSET when their stream is elsewhere), then every
// device whose rendezvous owner moved to the joiner has its merged log —
// and live chunk stream, if any — replicated over. The donors keep their
// copies (replication, not movement), a deliberate over-approximation that
// makes an aborted rebalance safe by construction.
func (f *Supervisor) Join() error {
	f.mu.Lock()
	if f.disarmed {
		f.mu.Unlock()
		return errors.New("fleet: closed")
	}
	if f.router == nil {
		f.mu.Unlock()
		return errors.New("fleet: cannot join a fleet without a router")
	}
	joiner, err := f.newMemberLocked()
	if err != nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: join: %w", err)
	}
	donors := f.liveLocked()
	f.members = append(f.members, joiner)
	f.epoch++
	f.rebalances++
	f.updateQuorumLocked()
	names := make([]string, 0, len(donors)+1)
	for _, m := range donors {
		names = append(names, m.name)
	}
	names = append(names, joiner.name)
	type planEntry struct {
		dev  string
		from *member
	}
	var plan []planEntry
	for _, m := range donors {
		for _, dev := range m.ds.Devices() {
			if owner, ok := Owner(dev, names); ok && owner == joiner.name {
				plan = append(plan, planEntry{dev: dev, from: m})
			}
		}
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].dev < plan[j].dev })
	cut := len(plan)
	if f.abortRebalance && len(plan) > 0 {
		f.abortRebalance = false
		cut = f.rng.Intn(len(plan))
		f.aborted++
	}
	dst := []target{{name: joiner.name, addr: joiner.sup.Addr()}}
	f.mu.Unlock()
	for _, p := range plan[:cut] {
		data, ok := p.from.ds.Get(p.dev)
		if !ok {
			continue
		}
		if f.replicate(p.dev, collect.HandoffLog, data, 0, dst, 1, handoffAttempts) == 0 {
			continue
		}
		if stream, ok := p.from.sup.Stream(p.dev); ok && len(stream) > 0 {
			f.replicate(p.dev, collect.HandoffStream, stream, 0, dst, 1, handoffAttempts)
		}
		f.mu.Lock()
		f.migrated++
		f.mu.Unlock()
	}
	return nil
}

// Leave retires the longest-serving live shard mid-study. It drains first,
// while the leaver is still routable — every device's merged log and live
// stream replicate to its post-leave rendezvous owner — then flips the
// shard dead, bumps the epoch and closes its supervisor. Records that
// arrive mid-drain land in the leaver's dataset and stay there: departed
// shards' datasets are retained by the merge, so the drain/arrival race
// cannot lose acknowledged data.
func (f *Supervisor) Leave() error {
	f.mu.Lock()
	if f.disarmed {
		f.mu.Unlock()
		return errors.New("fleet: closed")
	}
	if f.router == nil {
		f.mu.Unlock()
		return errors.New("fleet: cannot leave a fleet without a router")
	}
	live := f.liveLocked()
	if len(live) < 2 {
		f.mu.Unlock()
		return errors.New("fleet: leave needs at least two live shards")
	}
	leaver := live[0]
	survivors := live[1:]
	names := make([]string, 0, len(survivors))
	targets := make([]target, 0, len(survivors))
	for _, m := range survivors {
		names = append(names, m.name)
		targets = append(targets, target{name: m.name, addr: m.sup.Addr()})
	}
	plan := leaver.ds.Devices()
	sort.Strings(plan)
	cut := len(plan)
	if f.abortRebalance && len(plan) > 0 {
		f.abortRebalance = false
		cut = f.rng.Intn(len(plan))
		f.aborted++
	}
	f.rebalances++
	f.mu.Unlock()
	for _, dev := range plan[:cut] {
		data, ok := leaver.ds.Get(dev)
		if !ok {
			continue
		}
		if f.replicate(dev, collect.HandoffLog, data, 0, targets, 1, handoffAttempts) == 0 {
			continue
		}
		if stream, ok := leaver.sup.Stream(dev); ok && len(stream) > 0 {
			f.replicate(dev, collect.HandoffStream, stream, 0, targets, 1, handoffAttempts)
		}
		f.mu.Lock()
		f.migrated++
		f.mu.Unlock()
	}
	f.mu.Lock()
	leaver.live = false
	f.epoch++
	f.updateQuorumLocked()
	f.mu.Unlock()
	// The leaver may be mid-crash — drain traffic traverses crashpoints, so
	// an armed kill can fire on the leave itself. Settle before closing: a
	// Close (or even a Disarm) that lands while serverDied is mid-cycle
	// makes it skip the restart, stranding a counted crash with no
	// matching restart in the fleet's ledger. New kills cannot arm here —
	// fireKillsLocked only targets live members and the leaver just
	// stopped being one — and Settle cancels any kill still pending.
	if !leaver.sup.Settle(5 * time.Second) {
		f.setErr(fmt.Errorf("fleet: leaving shard %s still restarting after 5s; "+
			"closing it mid-restart strands a crash with no restart", leaver.name))
	}
	_ = leaver.sup.Close()
	return nil
}

// restartRouter replaces a killed router on the pinned address. Runs on the
// doomed request's handler goroutine, synchronously — by the time the
// killing request returns, clients dialing the fleet address reach the new
// incarnation (their in-flight requests died unanswered, like any crash).
func (f *Supervisor) restartRouter() {
	f.routerMu.Lock()
	defer f.routerMu.Unlock()
	f.mu.Lock()
	old := f.router
	f.mu.Unlock()
	if old != nil {
		old.kill()
	}
	var rt *Router
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if attempt > 0 {
			// Host-time pause for the dead listener's port to free up; on a
			// loaded single-CPU host the dying accept loop can hold the fd
			// well past the first few pauses, so the budget is generous.
			pause := time.Duration(attempt) * time.Millisecond
			if pause > 10*time.Millisecond {
				pause = 10 * time.Millisecond
			}
			//symlint:allow determinism host-time pause rebinding a real TCP listener
			time.Sleep(pause)
		}
		rt, err = newRouter(f.addr, f.routerHooks())
		if err == nil {
			break
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.lastErr = fmt.Errorf("fleet: router restart: %w", err)
		f.router = nil
		return
	}
	if f.disarmed {
		go rt.Close() // Close raced the restart; do not leak the new router
		f.router = nil
		return
	}
	f.router = rt
	f.routerRestarts++
}

func (f *Supervisor) setErr(err error) {
	f.mu.Lock()
	if f.lastErr == nil {
		f.lastErr = err
	}
	f.mu.Unlock()
}

// MergedDataset folds every shard's dataset — live and departed, not cut —
// into one canonical dataset: the fleet-wide view a study analysis runs
// over. The union over the members is what makes the over-approximations
// (handoff as replication, drain races, retained departed datasets)
// correct: a record may exist on several shards, but the canonical merge
// emits it exactly once, as the shared ledger taps it once.
func (f *Supervisor) MergedDataset() *collect.Dataset {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := collect.NewDataset()
	for _, m := range f.members {
		if m.cut {
			// A power-cut shard's dataset died with its hardware. Its acked
			// records survive in the ledger (AckedKeys) precisely so the
			// invariant checks can catch an R that failed to cover them.
			continue
		}
		for _, dev := range m.ds.Devices() {
			if data, ok := m.ds.Get(dev); ok {
				out.PutMerged(dev, data)
			}
		}
	}
	return out
}

// Err returns the first fleet-level failure (router restart, rebalance) or
// any shard supervisor's restart failure.
func (f *Supervisor) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastErr != nil {
		return f.lastErr
	}
	for _, m := range f.members {
		if err := m.sup.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close disarms the fleet, shuts the router down (waiting for in-flight
// handlers) and closes every live shard.
func (f *Supervisor) Close() error {
	f.mu.Lock()
	f.disarmed = true
	rt := f.router
	f.router = nil
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	if rt != nil {
		_ = rt.Close()
	}
	var first error
	for _, m := range members {
		if m.live {
			if err := m.sup.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Servers returns the live shard count.
func (f *Supervisor) Servers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.liveLocked())
}

// Epoch returns the membership epoch (bumped by every join and leave).
func (f *Supervisor) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Members returns every member name ever admitted, live first then
// departed, each sorted — the fuzz corpus and tests key off these.
func (f *Supervisor) Members() (live, departed []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.live {
			live = append(live, m.name)
		} else {
			departed = append(departed, m.name)
		}
	}
	sort.Strings(live)
	sort.Strings(departed)
	return live, departed
}

// Crashes sums injected kills fired across every shard.
func (f *Supervisor) Crashes() int { return f.sum((*collect.Supervisor).Crashes) }

// Restarts sums successful shard restarts.
func (f *Supervisor) Restarts() int { return f.sum((*collect.Supervisor).Restarts) }

// Quiesce waits (bounded host time) until every injected crash's restart
// has completed, reporting whether it did. With a write quorum W < R the
// client's ACK no longer waits for every replica, so a study can finish
// while a lagging replica incarnation is still replaying its WAL on its
// own goroutine; restarts always complete, but tests comparing Crashes()
// to Restarts() must let them land first.
func (f *Supervisor) Quiesce(timeout time.Duration) bool {
	//symlint:allow determinism host-time settle for real shard restarts; the simulation has already run
	deadline := time.Now().Add(timeout)
	for {
		if f.Crashes() == f.Restarts() {
			return true
		}
		//symlint:allow determinism host-time settle for real shard restarts; the simulation has already run
		if time.Now().After(deadline) {
			return false
		}
		//symlint:allow determinism host-time settle for real shard restarts; the simulation has already run
		time.Sleep(5 * time.Millisecond)
	}
}

// Uploads returns successful uploads served across every shard and incarnation.
func (f *Supervisor) Uploads() int { return f.first.Uploads() }

// Compactions returns snapshot compactions across every shard and incarnation.
func (f *Supervisor) Compactions() int { return f.first.Compactions() }

// ServerHandoffs returns the HANDOFF verbs accepted across every shard —
// the receiving side of replication, crash handoffs and rebalance
// migrations.
func (f *Supervisor) ServerHandoffs() int { return f.first.Handoffs() }

func (f *Supervisor) sum(get func(*collect.Supervisor) int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, m := range f.members {
		n += get(m.sup)
	}
	return n
}

// RouterKills returns how many times the router was drawn into a kill
// subset; RouterRestarts how many replacement routers came up.
func (f *Supervisor) RouterKills() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.routerKills
}

// RouterRestarts returns the number of successful router rebinds.
func (f *Supervisor) RouterRestarts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.routerRestarts
}

// Handoffs returns successful fleet-side replications (crash handoffs and
// rebalance migrations, per device payload); HandoffFailures the
// replications abandoned after every candidate refused; HandoffAborts the
// handoffs/rebalances cut short by the fleet-level crashpoints.
func (f *Supervisor) Handoffs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.handoffs
}

// HandoffFailures returns replications abandoned with no willing peer.
func (f *Supervisor) HandoffFailures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.handoffFails
}

// HandoffAborts returns handoffs and rebalances cut short partway by the
// during-handoff / during-rebalance crashpoints.
func (f *Supervisor) HandoffAborts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborted
}

// Migrated returns devices whose state was replicated by join/leave
// rebalancing.
func (f *Supervisor) Migrated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.migrated
}

// Rebalances returns completed join/leave operations.
func (f *Supervisor) Rebalances() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rebalances
}

// CutPower permanently destroys a live shard by name: the process dies and
// never restarts, its dataset dies with the hardware, and — unlike an
// injected kill — the OnCrash handoff window never runs. This is the
// failure write-time replication exists for: with R >= 2 every record the
// shard ever acknowledged already lives on its rendezvous successors, so
// the cut is a non-event for the merged dataset; with R == 1 it is
// acknowledged data loss, on purpose. The fleet's own failure detector
// (not this call) is what eventually suspects the corpse, confirms it dead
// and bumps the epoch.
func (f *Supervisor) CutPower(name string) error {
	f.mu.Lock()
	if f.router == nil {
		f.mu.Unlock()
		return errors.New("fleet: cannot cut power on a fleet without a router")
	}
	var victim *member
	for _, m := range f.members {
		if m.name == name && m.live && !m.cut {
			victim = m
			break
		}
	}
	if victim == nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no live shard %q to cut", name)
	}
	victim.cut = true
	f.updateQuorumLocked()
	f.mu.Unlock()
	// Close disarms the supervisor first, so OnCrash never fires: nobody
	// hands this shard's data anywhere. That is the point.
	return victim.sup.Close()
}

// Partition isolates (or reconnects) a live shard from the router: forwards
// and heartbeats to it fail without a dial, while the shard itself keeps
// running, WAL-syncing, and accepting peer traffic. The detector must
// suspect it — never confirm it dead — and routing must flow around it.
func (f *Supervisor) Partition(name string, isolated bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.router == nil {
		return errors.New("fleet: cannot partition a fleet without a router")
	}
	for _, m := range f.members {
		if m.name == name && m.live && !m.cut {
			m.partitioned = isolated
			return nil
		}
	}
	return fmt.Errorf("fleet: no live shard %q to partition", name)
}

// ReplicationFactor returns the resolved write-time replication factor R
// (1 when replication is off); WriteQuorum the resolved write quorum W.
func (f *Supervisor) ReplicationFactor() int { return f.replicateR }

// WriteQuorum returns the resolved write quorum W (1 when replication is off).
func (f *Supervisor) WriteQuorum() int { return f.writeW }

// Suspicions counts suspicion episodes raised by the failure detector;
// FalseSuspicions the subset raised against a shard that a direct
// (partition-bypassing) probe found alive at that moment — the detector's
// measured false-positive count. ConfirmedDead counts shards declared dead
// (requires process-level evidence, never misses alone); Repairs the
// devices re-replicated by the anti-entropy pass a confirmation triggers.
func (f *Supervisor) Suspicions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.suspicions
}

// FalseSuspicions counts suspicions of provably-alive shards.
func (f *Supervisor) FalseSuspicions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.falseSusp
}

// ConfirmedDead counts shards the detector declared dead.
func (f *Supervisor) ConfirmedDead() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.confirmedDead
}

// Repairs counts devices re-replicated by anti-entropy repair.
func (f *Supervisor) Repairs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.repairs
}

// DegradedRequests counts writes refused with the retryable below-quorum
// ERR; DegradedWindows how many times the fleet entered a below-quorum
// window (the transition count, so a single two-shard outage is one window
// however many writes it refused).
func (f *Supervisor) DegradedRequests() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degradedReqs
}

// DegradedWindows counts transitions into below-quorum operation.
func (f *Supervisor) DegradedWindows() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degradedWins
}

// Suspected returns the names of currently-suspected shards, sorted.
func (f *Supervisor) Suspected() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, m := range f.members {
		if m.suspected {
			out = append(out, m.name)
		}
	}
	sort.Strings(out)
	return out
}

// AckedKeys returns the serialized form of every record any incarnation of
// any shard acknowledged for a device, sorted — the fleet-wide ground truth
// for the no-acknowledged-data-loss invariant.
func (f *Supervisor) AckedKeys(id string) []string { return f.first.AckedKeys(id) }

// AckedDevices returns every device any shard acknowledged records for.
func (f *Supervisor) AckedDevices() []string { return f.first.AckedDevices() }
