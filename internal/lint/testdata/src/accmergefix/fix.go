// Package accmergefix is a symlint golden-test fixture for the accmerge
// analyzer. It is a self-contained miniature of the real layout: a Record
// type standing in for core.Record, an Accumulator interface and a
// RegisteredAccumulators table standing in for internal/analysis/stream.
package accmergefix

// Record mirrors core.Record.
type Record struct {
	Kind string
	Time int64
	Apps []string
}

// Accumulator mirrors stream.Accumulator.
type Accumulator interface {
	Observe(deviceID string, r Record)
	Merge(other Accumulator) error
	Snapshot() any
}

// RegisteredAccumulators stands in for stream.RegisteredAccumulators.
// "Ghost" has no implementation below, so the reverse check must flag it.
var RegisteredAccumulators = map[string]bool{
	"Counter":         true,
	"Hoarder":         true,
	"Nested":          true,
	"WindowedCounter": true,
	"DecayingHoarder": true,
	"Ghost":           true, // want: no implementation
}

// Counter is the clean case: registered, folds records into bounded state.
type Counter struct {
	perDevice map[string]int
	byKind    map[string]int
}

func (c *Counter) Observe(deviceID string, r Record) {
	c.perDevice[deviceID]++
	c.byKind[r.Kind]++
}
func (c *Counter) Merge(other Accumulator) error { return nil }
func (c *Counter) Snapshot() any                 { return c.byKind }

// Hoarder is registered but retains raw records in its state: every field
// holding Records (directly, in a slice, or behind a map) must lint.
type Hoarder struct {
	last Record              // want: retains Record
	all  []Record            // want: retains Record
	byID map[string][]Record // want: retains Record
	n    int
}

func (h *Hoarder) Observe(deviceID string, r Record) {
	h.last = r
	h.all = append(h.all, r)
	h.byID[deviceID] = append(h.byID[deviceID], r)
	h.n++
}
func (h *Hoarder) Merge(other Accumulator) error { return nil }
func (h *Hoarder) Snapshot() any                 { return h.n }

// hoard is a helper struct reachable from Nested's state; its retention
// must be found transitively.
type hoard struct {
	pending []Record // want: retains Record
	count   int
}

// Nested hides the retention one named type away.
type Nested struct {
	buf *hoard
}

func (n *Nested) Observe(deviceID string, r Record) {
	n.buf.pending = append(n.buf.pending, r)
	n.buf.count++
}
func (n *Nested) Merge(other Accumulator) error { return nil }
func (n *Nested) Snapshot() any                 { return n.buf.count }

// WindowedCounter is the continuous-operation clean case (mirrors the
// live tier's day fold): records fold into per-day integer buckets — bounded
// state, re-snapshottable, no Record survives Observe.
type WindowedCounter struct {
	perDay  map[int]int
	byKind  map[int]map[string]int
	session map[string]int64
	maxDay  int
}

func (w *WindowedCounter) Observe(deviceID string, r Record) {
	day := int(r.Time / 86400)
	w.perDay[day]++
	m := w.byKind[day]
	if m == nil {
		m = make(map[string]int)
		w.byKind[day] = m
	}
	m[r.Kind]++
	w.session[deviceID] = r.Time
	if day > w.maxDay {
		w.maxDay = day
	}
}
func (w *WindowedCounter) Merge(other Accumulator) error { return nil }
func (w *WindowedCounter) Snapshot() any                 { return w.perDay }

// DecayingHoarder gets the windowed shape wrong: it keys buckets by day but
// keeps the raw records inside them, so the "window" still grows with the
// record stream, not the day count.
type DecayingHoarder struct {
	buckets map[int][]Record // want: retains Record
	maxDay  int
}

func (d *DecayingHoarder) Observe(deviceID string, r Record) {
	day := int(r.Time / 86400)
	d.buckets[day] = append(d.buckets[day], r)
	if day > d.maxDay {
		d.maxDay = day
	}
}
func (d *DecayingHoarder) Merge(other Accumulator) error { return nil }
func (d *DecayingHoarder) Snapshot() any                 { return d.maxDay }

// Rogue implements Accumulator but is missing from the registry, so the
// merge-law tests would never exercise it.
type Rogue struct { // want: not registered
	n int
}

func (r *Rogue) Observe(deviceID string, rec Record) { r.n++ }
func (r *Rogue) Merge(other Accumulator) error       { return nil }
func (r *Rogue) Snapshot() any                       { return r.n }

// Feeder is the exempt case: it buffers records but is not an Accumulator
// (mirrors stream.Feeder's one-device buffer), so it must not lint.
type Feeder struct {
	buf []Record
}

func (f *Feeder) Flush(acc Accumulator, id string) {
	for _, r := range f.buf {
		acc.Observe(id, r)
	}
	f.buf = f.buf[:0]
}
