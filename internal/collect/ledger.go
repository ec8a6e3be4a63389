package collect

import (
	"sort"
	"sync"
	"sync/atomic"

	"symfail/internal/core"
)

// Ledger is the acknowledgement state of one collection tier: the upload,
// compaction and handoff counters and the serialized form of every record
// acknowledged or tapped per device. Its acknowledged records are the
// ground truth for the no-acknowledged-data-loss invariant, and it is the
// one dedup stage in front of the OnRecord tap: a record reaches the tap
// the first time any server sharing the ledger commits it. A Supervisor
// hands its ledger to every incarnation it starts, so nothing is harvested
// when one dies, and a fleet hands one ledger to every shard; a bare
// NewServerWith makes its own. Lock order: Server.mu, then Ledger.mu.
type Ledger struct {
	uploads, compactions, handoffs atomic.Int64

	mu sync.Mutex
	// recs maps device -> serialized record -> acknowledged: true once a
	// server acknowledged the record, false while it was only tapped
	// unacked at a rewind or FIN.
	recs map[string]map[string]bool
}

// NewLedger returns an empty ledger to share between supervisors (see
// SupervisorConfig.Ledger).
func NewLedger() *Ledger { return &Ledger{recs: make(map[string]map[string]bool)} }

// record notes recs as acknowledged for a device, then calls tap (when
// non-nil) for each record the ledger had neither acknowledged nor tapped
// before. The tap runs after l.mu is released.
func (l *Ledger) record(id string, recs []core.Record, tap func(string, core.Record)) {
	fresh := l.mark(id, recs, true)
	if tap != nil {
		for _, rec := range fresh {
			tap(id, rec)
		}
	}
}

// tapUnacked calls tap for the records of a stream about to be replaced (by
// a rewind or a FIN) that were never acknowledged nor tapped. A verb
// WAL-synced by a killed incarnation is recovered into the dataset without
// an ACK; once its stream is replaced nothing else would deliver those
// records. The ledger marks them tapped but not acknowledged, so a later
// ACK does not tap them again and keys leaves them out. Callers run it
// before the replacing verb commits, so a crash inside that commit cannot
// skip it. The tap runs after l.mu is released.
func (l *Ledger) tapUnacked(id string, stream []byte, tap func(string, core.Record)) {
	if tap == nil {
		return
	}
	for _, rec := range l.mark(id, core.ParseRecords(stream), false) {
		tap(id, rec)
	}
}

// mark notes recs as acknowledged (ack) or tapped for a device and returns
// those it had neither acknowledged nor tapped before. recs is only read: a
// CHUNK hands the same parsed records to the dataset.
func (l *Ledger) mark(id string, recs []core.Record, ack bool) []core.Record {
	var fresh []core.Record
	var scratch []byte
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := l.recs[id]
	for _, rec := range recs {
		scratch = core.AppendRecordLine(scratch[:0], rec)
		acked, seen := keys[string(scratch)] // alloc-free lookup; re-sent records are the common case
		if acked || (seen && !ack) {
			continue
		}
		if keys == nil {
			keys = make(map[string]bool)
			l.recs[id] = keys
		}
		keys[string(scratch)] = ack
		if !seen {
			fresh = append(fresh, rec)
		}
	}
	return fresh
}

// keys returns the acknowledged records of a device, sorted.
func (l *Ledger) keys(id string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ackedKeys(l.recs[id])
}

// devices returns every device with an acknowledged record, sorted.
func (l *Ledger) devices() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []string{}
	for id, keys := range l.recs {
		if len(ackedKeys(keys)) > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ackedKeys returns the keys of m whose value is true, sorted.
func ackedKeys(m map[string]bool) []string {
	out := []string{}
	for k, acked := range m {
		if acked {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
