package collect

import (
	"sync"
	"sync/atomic"

	"symfail/internal/core"
)

// ledger is the acknowledgement state of one server lifetime: the upload,
// compaction and handoff counters and the serialized form of every record
// ever acknowledged per device — the ground truth for the
// no-acknowledged-data-loss invariant. A Supervisor hands the same ledger to
// every incarnation it starts, so nothing is harvested when one dies; a bare
// NewServerWith makes its own. Lock order: Server.mu, then ledger.mu.
type ledger struct {
	uploads, compactions, handoffs atomic.Int64

	mu    sync.Mutex
	acked map[string]map[string]bool
}

func newLedger() *ledger { return &ledger{acked: make(map[string]map[string]bool)} }

// record notes recs as acknowledged for a device, then calls tap (when
// non-nil) for each record no incarnation had acknowledged before. recs is
// only read: a CHUNK hands the same parsed records to the dataset. The tap
// runs after l.mu is released.
func (l *ledger) record(id string, recs []core.Record, tap func(string, core.Record)) {
	var fresh []core.Record
	var scratch []byte
	l.mu.Lock()
	keys := l.acked[id]
	if keys == nil {
		keys = make(map[string]bool)
		l.acked[id] = keys
	}
	for _, rec := range recs {
		scratch = core.AppendRecordLine(scratch[:0], rec)
		if keys[string(scratch)] { // alloc-free lookup; re-sent records are the common case
			continue
		}
		keys[string(scratch)] = true
		fresh = append(fresh, rec)
	}
	l.mu.Unlock()
	if tap != nil {
		for _, rec := range fresh {
			tap(id, rec)
		}
	}
}

// tapUnacked calls tap for the records of a stream about to be replaced (by
// a rewind or a FIN) that were never acknowledged. A verb WAL-synced by a
// killed incarnation is recovered into the dataset without an ACK; once its
// stream is replaced nothing else would deliver those records. The records
// stay out of the ledger, which holds acknowledged records only. Callers
// run it before the replacing verb commits, so a crash inside that commit
// cannot skip it. The tap runs after l.mu is released.
func (l *ledger) tapUnacked(id string, stream []byte, tap func(string, core.Record)) {
	if tap == nil {
		return
	}
	recs := core.ParseRecords(stream)
	unacked := recs[:0]
	var scratch []byte
	l.mu.Lock()
	keys := l.acked[id]
	for _, rec := range recs {
		scratch = core.AppendRecordLine(scratch[:0], rec)
		if !keys[string(scratch)] {
			unacked = append(unacked, rec)
		}
	}
	l.mu.Unlock()
	for _, rec := range unacked {
		tap(id, rec)
	}
}

// keys returns the acknowledged records of a device, sorted.
func (l *ledger) keys(id string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeys(l.acked[id])
}

// devices returns every device with an acknowledged verb, sorted.
func (l *ledger) devices() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedKeys(l.acked)
}
