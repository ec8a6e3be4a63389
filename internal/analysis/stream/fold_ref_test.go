package stream

import (
	"math"
	"sort"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// refDayBuckets is the reference for the day fold (window.go): the
// map-per-counter fold it replaced, which looks each day up in five maps
// and re-sorts each day's panic keys and re-computes each day's decay
// weight on every render. It renders the same WindowSnapshot and
// DecaySnapshot, adding every float in the same ascending-day, sorted-key
// order, so the differential tests compare the two as marshalled bytes.
// Days below 0 are kept here but, as in the dense fold, never rendered.
type refDayBuckets struct {
	cfg      Config
	ids      map[string]panicID
	panics   map[int]map[string]int // day -> panic key -> count
	records  map[int]int
	freezes  map[int]int
	selfs    map[int]int
	users    map[int]int
	uptimeNs map[int]int64
	maxDay   int
	hasData  bool
}

func newRefDayBuckets(cfg Config) *refDayBuckets {
	return &refDayBuckets{
		cfg:      cfg,
		ids:      make(map[string]panicID),
		panics:   make(map[int]map[string]int),
		records:  make(map[int]int),
		freezes:  make(map[int]int),
		selfs:    make(map[int]int),
		users:    make(map[int]int),
		uptimeNs: make(map[int]int64),
	}
}

func (b *refDayBuckets) see(day int) {
	if !b.hasData || day > b.maxDay {
		b.maxDay = day
	}
	b.hasData = true
}

func (b *refDayBuckets) observe(session *sim.Time, r core.Record) {
	t := sim.Time(r.Time)
	day := t.Day()
	b.see(day)
	b.records[day]++
	switch r.Kind {
	case core.KindPanic:
		m := b.panics[day]
		if m == nil {
			m = make(map[string]int)
			b.panics[day] = m
		}
		key := r.PanicKey()
		m[key]++
		b.ids[key] = panicID{r.Category, r.PType}
	case core.KindBoot:
		if start := *session; start != sim.Never && r.PrevTime > int64(start) {
			b.addUptime(int64(start), r.PrevTime)
		}
		*session = t
		down := sim.Time(r.PrevTime).Day()
		switch r.Detected {
		case core.DetectedFreeze:
			b.freezes[down]++
			b.see(down)
		case core.DetectedShutdown:
			if b.cfg.selfShutdown(r.OffSeconds) {
				b.selfs[down]++
			} else {
				b.users[down]++
			}
			b.see(down)
		}
	}
}

// addUptime counts no time before the epoch and bounds a day's end by hi
// before it can overflow: the last representable day ends past
// math.MaxInt64.
func (b *refDayBuckets) addUptime(lo, hi int64) {
	lo = max(lo, 0)
	for lo < hi {
		d := lo / simDay
		end := hi
		if d < math.MaxInt64/simDay && (d+1)*simDay < hi {
			end = (d + 1) * simDay
		}
		b.uptimeNs[int(d)] += end - lo
		lo = end
	}
}

func (b *refDayBuckets) window(days int) *WindowSnapshot {
	if days <= 0 {
		days = int(b.cfg.Window / time.Duration(simDay))
		if days < 1 {
			days = 1
		}
	}
	snap := &WindowSnapshot{Config: b.cfg, ToDay: -1}
	if !b.hasData {
		return snap
	}
	snap.ToDay = b.maxDay
	snap.FromDay = b.maxDay - days + 1
	if snap.FromDay < 0 {
		snap.FromDay = 0
	}
	counts := make(map[string]int)
	var uptime int64
	for d := snap.FromDay; d <= snap.ToDay; d++ {
		snap.Records += b.records[d]
		snap.Freezes += b.freezes[d]
		snap.SelfShutdowns += b.selfs[d]
		snap.UserShutdowns += b.users[d]
		uptime += b.uptimeNs[d]
		for k, n := range b.panics[d] {
			counts[k] += n
			snap.Panics += n
		}
	}
	snap.UptimeHours = float64(uptime) / float64(time.Second) / 3600
	snap.MTBF = MTBFOf(snap.UptimeHours, snap.Freezes, snap.SelfShutdowns)
	if snap.Panics > 0 {
		snap.PanicTable = panicRowsFrom(counts, b.ids, snap.Panics)
	}
	snap.FreezesPerDay = float64(snap.Freezes) / float64(days)
	return snap
}

func (b *refDayBuckets) decay() *DecaySnapshot {
	snap := &DecaySnapshot{Config: b.cfg}
	weights := make(map[string]float64)
	b.decayScalars(snap, func(d int, w float64) {
		m := b.panics[d]
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			weights[k] += w * float64(m[k])
			snap.Panics += w * float64(m[k])
		}
	})
	rows := make([]DecayRow, 0, len(weights))
	for k, w := range weights {
		row := DecayRow{Key: k, Weight: w, Meaning: meaningOf(b.ids[k])}
		if snap.Panics > 0 {
			row.Percent = 100 * w / snap.Panics
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Weight != rows[j].Weight {
			return rows[i].Weight > rows[j].Weight
		}
		return rows[i].Key < rows[j].Key
	})
	snap.PanicTable = rows
	return snap
}

func (b *refDayBuckets) decayScalars(snap *DecaySnapshot, perDay func(d int, w float64)) {
	snap.AsOfDay = -1
	if !b.hasData {
		return
	}
	snap.AsOfDay = b.maxDay
	halfDays := b.cfg.DecayHalfLife.Hours() / 24
	for d := 0; d <= b.maxDay; d++ {
		w := math.Exp2(-float64(b.maxDay-d) / halfDays)
		if perDay != nil {
			perDay(d, w)
		}
		snap.Freezes += w * float64(b.freezes[d])
		snap.SelfShutdowns += w * float64(b.selfs[d])
		snap.UserShutdowns += w * float64(b.users[d])
		snap.UptimeHours += w * (float64(b.uptimeNs[d]) / float64(time.Second) / 3600)
	}
	if f := snap.Freezes + snap.SelfShutdowns; f > 0 {
		snap.MTBFHours = snap.UptimeHours / f
	}
}
