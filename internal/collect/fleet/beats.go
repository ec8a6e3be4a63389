package fleet

import (
	"fmt"

	"symfail/internal/collect"
)

// Heartbeat failure detection (DESIGN.md §15). The fleet detects its own
// shard failures instead of being told about them by an omniscient
// supervisor: every beatEvery routed requests (plus BeatRng jitter) the
// request that trips the countdown carries one beat round — a PING to every
// member — and every routed forward attempt doubles as a probe via the
// router's observe hook. Consecutive misses raise suspicion (φ-style
// accrual collapsed to a counter: the beat cadence is fixed in
// request-time, so the miss count is the phi); a suspected shard is routed
// around and skipped as a replication target, and a successful probe
// clears it. Confirmation — the epoch-bumping declaration of death —
// additionally requires process-level evidence (a power cut, a restart
// loop that gave up), so a healthy-but-slow or partitioned shard can be
// suspected forever but never declared dead.

// runBeat carries one beat round: probe every snapshot member, feed the
// results to the detector, then re-arm the countdown. Runs on a routed
// request's handler goroutine with no fleet locks held; the `beating` flag
// keeps rounds from overlapping.
func (f *Supervisor) runBeat(probes []*member) {
	for _, m := range probes {
		f.noteProbe(m, f.probe(m))
	}
	f.mu.Lock()
	f.beating = false
	f.redrawBeatLocked()
	f.mu.Unlock()
}

// probe is one heartbeat: a PING over the same network position the router
// holds, so a partition that blinds the router blinds the prober too —
// that is what makes partition and crash indistinguishable from here, and
// why suspicion alone must never be a death sentence.
func (f *Supervisor) probe(m *member) bool {
	f.mu.Lock()
	partitioned := m.partitioned
	addr := m.sup.Addr()
	f.mu.Unlock()
	if partitioned {
		return false
	}
	return collect.Ping(addr) == nil
}

// redrawBeatLocked re-arms the beat countdown: beatEvery requests plus a
// jitter draw from the dedicated beat stream. The jitter keeps beat rounds
// from phase-locking with periodic workloads; its RNG is isolated so beat
// cadence can never perturb kill schedules or device streams.
func (f *Supervisor) redrawBeatLocked() {
	f.untilBeat = f.beatEvery
	if f.beatRng != nil {
		f.untilBeat += f.beatRng.Intn(f.beatEvery/2 + 1)
	}
}

// observe is the router's per-forward-attempt feedback (routerHooks.observe):
// routed traffic doubles as probing, so a dead or unreachable shard is
// suspected within a few attempts of the forward loop that discovered it —
// which then re-routes — instead of waiting out a beat period.
func (f *Supervisor) observe(addr string, ok bool) {
	f.mu.Lock()
	m := f.memberByAddrLocked(addr)
	f.mu.Unlock()
	if m != nil {
		f.noteProbe(m, ok)
	}
}

// noteProbe folds one probe outcome into the detector. Called with no
// fleet locks held.
func (f *Supervisor) noteProbe(m *member, ok bool) {
	f.mu.Lock()
	if f.disarmed || !m.live {
		f.mu.Unlock()
		return
	}
	if ok {
		m.misses = 0
		if m.suspected {
			m.suspected = false
			f.updateQuorumLocked()
		}
		f.mu.Unlock()
		return
	}
	m.misses++
	suspect := m.misses >= f.suspectAfter && !m.suspected
	if suspect {
		m.suspected = true
		f.suspicions++
		f.updateQuorumLocked()
	}
	confirm := m.misses >= f.confirmAfter && (m.cut || m.sup.Err() != nil)
	addr := m.sup.Addr()
	partitioned := m.partitioned
	f.mu.Unlock()
	if suspect && !partitioned {
		// Ground-truth the suspicion with one direct probe that bypasses
		// any router-side partition simulation: if the shard answers, the
		// detector just suspected a healthy process — count it. (Under a
		// simulated partition the direct probe would succeed vacuously, so
		// the partitioned case is counted false by definition instead.)
		if collect.Ping(addr) == nil {
			f.countFalseSuspicion()
		}
	} else if suspect && partitioned {
		f.countFalseSuspicion()
	}
	if confirm {
		f.confirmDead(m)
	}
}

func (f *Supervisor) countFalseSuspicion() {
	f.mu.Lock()
	f.falseSusp++
	f.mu.Unlock()
}

// confirmDead declares a shard dead: membership epoch bumps (uploaders
// renegotiate via OFFSET like any rebalance) and anti-entropy repair
// re-replicates every device the corpse's dataset names, restoring the
// replication level its loss degraded. The dataset itself may be gone (a
// power cut) — repair then works from the surviving copies, which is
// exactly what write-time replication guarantees exist.
func (f *Supervisor) confirmDead(m *member) {
	f.mu.Lock()
	if f.disarmed || !m.live {
		f.mu.Unlock()
		return
	}
	m.live = false
	m.suspected = false
	f.epoch++
	f.confirmedDead++
	f.updateQuorumLocked()
	// The repair plan: every device the dead shard held, re-replicated
	// from a surviving copy to the device's current rendezvous owners.
	// A cut shard's ds is the in-memory ghost of its dataset — readable
	// even though the "hardware" is gone — but repair deliberately sources
	// the bytes from a *surviving* holder: the merged view of the
	// remaining members, exactly what a real operator would have.
	type job struct {
		dev  string
		data []byte
	}
	var plan []job
	for _, dev := range m.ds.Devices() {
		for _, peer := range f.liveLocked() {
			if data, ok := peer.ds.Get(dev); ok {
				plan = append(plan, job{dev: dev, data: data})
				break
			}
		}
	}
	targets := f.availableTargetsLocked(nil)
	want := f.replicateR
	if want > len(targets) {
		want = len(targets)
	}
	f.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	for _, j := range plan {
		f.replicate(j.dev, collect.HandoffLog, j.data, 0, targets, want, handoffAttempts)
		f.mu.Lock()
		f.repairs++
		f.mu.Unlock()
	}
}

// updateQuorumLocked tracks below-quorum transitions: fewer available
// (live, uncut, unsuspected) shards than W means every write would be
// refused; entering that state opens one degraded window.
func (f *Supervisor) updateQuorumLocked() {
	if !f.quorumOn() {
		return
	}
	below := f.availableLocked() < f.writeW
	if below && !f.belowQuorum {
		f.degradedWins++
	}
	f.belowQuorum = below
}

// gate is the router's pre-forward check (routerHooks.gate): a write verb
// arriving while the fleet is below quorum is refused with a retryable
// ERR before any shard commits anything — an honest "try again" instead
// of a durability promise W shards cannot back. Reads and bookkeeping
// verbs pass: they promise nothing new.
//
// Before refusing, the gate re-probes the suspected shards once: suspicion
// raised during a restart window otherwise only clears on the next beat
// round, and a fleet that is healthy again should not keep refusing writes
// while it waits for its own heartbeat to notice.
func (f *Supervisor) gate(verb string) error {
	if verb != "CHUNK" {
		return nil
	}
	f.mu.Lock()
	if !f.belowQuorum {
		f.mu.Unlock()
		return nil
	}
	var recheck []*member
	for _, m := range f.liveLocked() {
		if m.suspected {
			recheck = append(recheck, m)
		}
	}
	f.mu.Unlock()
	for _, m := range recheck {
		f.noteProbe(m, f.probe(m))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.belowQuorum {
		return nil
	}
	f.degradedReqs++
	return fmt.Errorf("quorum unavailable: fewer than %d shards reachable (retryable)", f.writeW)
}

// blockedAddr is the router's partition check (routerHooks.blocked).
func (f *Supervisor) blockedAddr(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.memberByAddrLocked(addr)
	return m != nil && m.partitioned
}
