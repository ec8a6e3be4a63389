package collect

import (
	"sort"

	"symfail/internal/core"
)

// refLedger is the acked ledger as a map per device, from each record's
// line to whether it was acknowledged (false while it was only tapped).
// It is the reference the arena ledger is checked against: the same calls
// must return the same fresh records, taps, keys and devices.
type refLedger struct {
	recs map[string]map[string]bool
}

func newRefLedger() *refLedger { return &refLedger{recs: make(map[string]map[string]bool)} }

func (l *refLedger) record(id string, recs []core.RecordLine, tap func(string, core.Record)) {
	for _, rl := range l.mark(id, recs, true) {
		if tap != nil {
			tap(id, rl.Record)
		}
	}
}

func (l *refLedger) tapUnacked(id string, stream []byte, tap func(string, core.Record)) {
	if tap == nil {
		return
	}
	for _, rl := range l.mark(id, core.ParseRecordLines(stream), false) {
		tap(id, rl.Record)
	}
}

func (l *refLedger) mark(id string, recs []core.RecordLine, ack bool) []core.RecordLine {
	var fresh []core.RecordLine
	keys := l.recs[id]
	for _, rl := range recs {
		acked, seen := keys[string(rl.Line)]
		if acked || (seen && !ack) {
			continue
		}
		if keys == nil {
			keys = make(map[string]bool)
			l.recs[id] = keys
		}
		keys[string(rl.Line)] = ack
		if !seen {
			fresh = append(fresh, rl)
		}
	}
	return fresh
}

func (l *refLedger) keys(id string) []string {
	out := []string{}
	for k, acked := range l.recs[id] {
		if acked {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLedger) devices() []string {
	out := []string{}
	for id := range l.recs {
		if len(l.keys(id)) > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
