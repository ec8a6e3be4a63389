package collect

import (
	"bytes"
	"hash/crc32"
	"math"
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

	mu   sync.Mutex
	devs map[string]*ledgerDevice
}

// ledgerDevice is one device's booked records. Each record's line is
// stored once, in an append-only arena, and indexed by its CRC-32C and
// length. A hit in the index is a candidate, not a match: the bytes are
// compared, so two records whose checksums collide are never merged. The
// first line booked under a key has its entry in index, any later one
// with the same key but other bytes is chained in collide.
//
// The arena is a list of pages of up to ledgerPage bytes, and no line
// crosses two. A page doubles until it is full, from a quarter page once
// the device has filled its first, and is never copied again, so a
// device's spare room is what its last page has not filled yet and the
// tail of each page the next line did not fit.
//
// The index is a hash table of its own, open addressing on the CRC with
// linear probing, because a new record, the common case, then costs one
// probe sequence where a Go map takes a lookup and an insert. It is a
// power of two long and at most three quarters full; the zero entry is
// free. An empty line, which no record has, is only ever chained.
type ledgerDevice struct {
	pages   [][]byte
	index   []ledgerEntry
	used    int // index entries in use
	collide map[ledgerKey][]ledgerSlot
	acked   int // records acknowledged, not only tapped
}

// ledgerPage is the size of an arena page: a line longer than a page
// gets one of its own.
const (
	ledgerPageBits = 12
	ledgerPage     = 1 << ledgerPageBits
)

// ledgerKey is a line's CRC-32C and length.
type ledgerKey struct{ sum, n uint32 }

// ledgerSlot is where a booked line starts, its page and the offset in
// the page, shifted left by one, with the low bit set once a server
// acknowledged the record (clear while it was only tapped unacked at a
// rewind or FIN).
type ledgerSlot uint32

// ledgerEntry is one index entry: 12 bytes a record, less than a string
// header.
type ledgerEntry struct {
	key  ledgerKey
	slot ledgerSlot
}

// maxPages bounds one device's arena, so that every place fits a
// ledgerSlot: 2 GiB of lines, where a device holds far less (streams are
// capped at MaxUploadBytes).
const maxPages = math.MaxUint32 >> (1 + ledgerPageBits)

// NewLedger returns an empty ledger to share between supervisors (see
// SupervisorConfig.Ledger).
func NewLedger() *Ledger { return &Ledger{devs: make(map[string]*ledgerDevice)} }

// record notes recs as acknowledged for a device, then calls tap (when
// non-nil) for each record the ledger had neither acknowledged nor tapped
// before. The tap runs after l.mu is released.
func (l *Ledger) record(id string, recs []core.RecordLine, tap func(string, core.Record)) {
	fresh := l.mark(id, recs, true)
	if tap != nil {
		for _, rl := range fresh {
			tap(id, rl.Record)
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
	for _, rl := range l.mark(id, core.ParseRecordLines(stream), false) {
		tap(id, rl.Record)
	}
}

// mark notes recs as acknowledged (ack) or tapped for a device, keyed by
// their lines, and returns those it had neither acknowledged nor tapped
// before, in order. recs is only read: a CHUNK hands the same parsed
// records to the dataset. While every record is new, which is the common
// case, the result is recs itself; it is copied only when a new record
// follows one booked before.
func (l *Ledger) mark(id string, recs []core.RecordLine, ack bool) []core.RecordLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devs[id]
	if d == nil {
		if len(recs) == 0 {
			return recs
		}
		d = &ledgerDevice{}
		l.devs[id] = d
	}
	fresh, own := recs[:0], false
	for i, rl := range recs {
		switch {
		case !d.book(rl.Line, ack):
		case own:
			fresh = append(fresh, rl)
		case len(fresh) == i:
			fresh = recs[:i+1] // every record so far is new
		default:
			fresh = append(append(make([]core.RecordLine, 0, len(fresh)+len(recs)-i), fresh...), rl)
			own = true
		}
	}
	return fresh
}

// book notes line as acknowledged (ack) or tapped and reports whether the
// device had neither acknowledged nor tapped it before.
func (d *ledgerDevice) book(line []byte, ack bool) bool {
	key := ledgerKey{crc32.Checksum(line, castagnoli), uint32(len(line))}
	if len(line) > 0 {
		if 4*(d.used+1) > 3*len(d.index) {
			d.growIndex()
		}
		e := d.find(key)
		if e.key != key {
			*e = ledgerEntry{key, d.store(line, ack)}
			d.used++
			return true
		}
		if d.holds(e.slot, line) {
			d.ack(&e.slot, ack)
			return false
		}
	}
	chain := d.collide[key]
	for i := range chain {
		if d.holds(chain[i], line) {
			d.ack(&chain[i], ack)
			return false
		}
	}
	if d.collide == nil {
		d.collide = make(map[ledgerKey][]ledgerSlot)
	}
	d.collide[key] = append(chain, d.store(line, ack))
	return true
}

// ack marks the record booked at *slot acknowledged, when ack is set.
func (d *ledgerDevice) ack(slot *ledgerSlot, ack bool) {
	if ack && *slot&1 == 0 {
		*slot |= 1
		d.acked++
	}
}

// find returns the index entry holding key, or the free entry where it
// goes.
func (d *ledgerDevice) find(key ledgerKey) *ledgerEntry {
	mask := uint32(len(d.index) - 1)
	for i := key.sum & mask; ; i = (i + 1) & mask {
		if e := &d.index[i]; e.key == key || e.key.n == 0 {
			return e
		}
	}
}

// growIndex doubles the index (to 8 entries at first) and re-enters every
// entry.
func (d *ledgerDevice) growIndex() {
	old := d.index
	d.index = make([]ledgerEntry, max(8, 2*len(old)))
	for _, e := range old {
		if e.key.n != 0 {
			*d.find(e.key) = e
		}
	}
}

// store appends line to the arena and returns its slot.
func (d *ledgerDevice) store(line []byte, ack bool) ledgerSlot {
	p := len(d.pages) - 1
	if p < 0 || len(d.pages[p]) > 0 && len(d.pages[p])+len(line) > ledgerPage {
		if len(d.pages) == maxPages {
			panic("collect: acked ledger arena of one device exceeds 2 GiB")
		}
		d.pages = append(d.pages, nil)
		p++
	}
	page := d.pages[p]
	if n := len(page) + len(line); n > cap(page) && n <= ledgerPage {
		size := max(2*cap(page), n)
		if p > 0 {
			size = max(size, ledgerPage/4) // the device is past its first page
		}
		page = append(make([]byte, 0, min(size, ledgerPage)), page...)
	}
	slot := ledgerSlot(p<<ledgerPageBits|len(page)) << 1
	d.pages[p] = append(page, line...)
	if ack {
		slot |= 1
		d.acked++
	}
	return slot
}

// line returns the n-byte line booked at slot.
func (d *ledgerDevice) line(slot ledgerSlot, n int) []byte {
	at := int(slot >> 1)
	page, off := d.pages[at>>ledgerPageBits], at&(ledgerPage-1)
	return page[off : off+n]
}

// holds reports whether the arena holds line at slot.
func (d *ledgerDevice) holds(slot ledgerSlot, line []byte) bool {
	return bytes.Equal(d.line(slot, len(line)), line)
}

// keys returns the acknowledged records of a device, sorted.
func (l *Ledger) keys(id string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []string{}
	d := l.devs[id]
	if d == nil {
		return out
	}
	add := func(key ledgerKey, slot ledgerSlot) {
		if slot&1 != 0 {
			out = append(out, string(d.line(slot, int(key.n))))
		}
	}
	for _, e := range d.index {
		if e.key.n != 0 {
			add(e.key, e.slot)
		}
	}
	for key, chain := range d.collide {
		for _, slot := range chain {
			add(key, slot)
		}
	}
	sort.Strings(out)
	return out
}

// devices returns every device with an acknowledged record, sorted.
func (l *Ledger) devices() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []string{}
	for id, d := range l.devs {
		if d.acked > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
