package fleet

import (
	"symfail/internal/collect"
)

// Write-time quorum replication (DESIGN.md §15). The primary shard — not
// the router — replicates each committed write, and shard-to-shard HANDOFF
// traffic stays off the routed path (the router does not route HANDOFF),
// so replication advances no kill schedule and draws no fleet RNG. CHUNK
// is the only write verb, and each is replicated as itself: its bytes at
// its offset, applied to each replica's own copy of the device's stream by
// the step the owner used, so a replica parses each byte once and holds
// the stream the owner acknowledged. The study-end log is a CHUNK at
// offset 0 and is replicated the same way. That is what lets a replica take the device's next CHUNK
// when the owner dies. A replica that missed a write refuses the chunk as
// stale and is sent the owner's whole stream instead. HANDOFF handlers
// never replicate onward — fan-out is exactly one hop deep, so two shards
// replicating to each other cannot storm or deadlock.

// replicaHook builds the ServerConfig.Replicate callback for shard m: the
// write-time leg of quorum replication. Called by every incarnation of m's
// server after a local WAL sync with the server mutex released (see the
// contract on ServerConfig.Replicate). It forwards the committed state to
// the device's R-1 rendezvous successors and reports whether, counting the
// local copy, a write quorum of W shards now holds it durably. Op
// ReplicateFetch is the gap fill instead (see fillGap).
func (f *Supervisor) replicaHook(m *member) func(op, deviceID string, state []byte, off int) bool {
	return func(op, dev string, state []byte, off int) bool {
		if op == collect.ReplicateFetch {
			return f.fillGap(m, dev, off)
		}
		f.mu.Lock()
		if f.disarmed {
			// Shutdown raced the write. Nothing downstream reads the reply;
			// don't manufacture a quorum failure out of teardown ordering.
			f.mu.Unlock()
			return true
		}
		targets := f.availableTargetsLocked(m)
		need := f.writeW - 1 // the primary's own WAL-synced copy counts
		fanout := f.replicateR - 1
		f.mu.Unlock()
		if len(targets) > fanout {
			targets = rendezvousOrder(dev, targets)[:fanout]
		}
		if op == collect.ReplicateFin {
			// Stream retirement is bookkeeping, not durability: one
			// best-effort pass, no retries, result ignored by the caller.
			for _, t := range targets {
				_ = collect.Fin(t.addr, dev)
			}
			return true
		}
		if len(targets) < need {
			// Not enough reachable peers to ever meet W: refuse fast rather
			// than grind retries against a fleet that cannot help.
			f.mu.Lock()
			f.degradedReqs++
			f.mu.Unlock()
			return false
		}
		// Offer to every successor (want <= 0), not just W-1, each on its
		// own leg at once: the copies beyond the quorum are what keep the
		// *next* shard loss survivable without waiting for repair. The ACK
		// still only needs `need`.
		got := f.replicate(dev, collect.HandoffChunk, state, off, targets, 0, writeAttempts)
		if got < need {
			f.mu.Lock()
			f.degradedReqs++
			f.mu.Unlock()
			return false
		}
		return true
	}
}

// fillGap is the ReplicateFetch leg: shard m got a CHUNK at offset off past
// the end of its copy of dev's stream — it took the device over from an
// owner that died or was routed around, and missed writes. It reads the
// stream in-process from the first live peer, in the device's rendezvous
// order, whose copy reaches off, and installs it on m as a chunk at offset
// 0, which replaces m's copy. The read happens below any client transport,
// so it draws no fault RNG and no routed request.
func (f *Supervisor) fillGap(m *member, dev string, off int) bool {
	f.mu.Lock()
	peers := make(map[string]*member)
	var targets []target
	for _, p := range f.liveLocked() {
		if p != m {
			peers[p.name] = p
			targets = append(targets, target{name: p.name, addr: p.sup.Addr()})
		}
	}
	f.mu.Unlock()
	for _, t := range rendezvousOrder(dev, targets) {
		if stream, ok := peers[t.name].sup.Stream(dev); ok && len(stream) >= off {
			return collect.HandoffFrom(m.sup.Addr(), dev, stream, 0) == nil
		}
	}
	return false
}
