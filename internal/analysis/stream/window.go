package stream

import (
	"math"
	"sort"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// This file holds the live tier's day fold: time-windowed and
// exponentially-decaying views of the failure stream. Unlike the cursor-fed
// reducers it folds raw records straight into integer per-sim-day buckets —
// no pending event graph, no coalescence — and applies every cutoff and
// every floating-point weight at render time, in canonical (ascending-day,
// sorted-key) order, so it re-renders without cloning. The price is
// cursor-free semantics: a freeze or self-shutdown is classified directly
// from its boot record, and uptime counts closed boot-to-down sessions only
// (the open tail of a live device is still moving, so it belongs to no
// bucket yet).
//
// The counts fold in any order. Uptime does not: each boot closes the
// session opened by the boot last delivered for its device, so uptime (and
// every MTBF derived from it) depends on the order a device's records
// arrive in.

// simDay is the bucket width of the day fold.
const simDay = int64(24 * time.Hour)

// dayBuckets is LiveStudy's integer per-day fold. The devices' session
// starts live in LiveStudy's device state, which passes each one in.
type dayBuckets struct {
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

func newDayBuckets(cfg Config) *dayBuckets {
	return &dayBuckets{
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

func (b *dayBuckets) see(day int) {
	if !b.hasData || day > b.maxDay {
		b.maxDay = day
	}
	b.hasData = true
}

// observe folds one record of the device whose fold session start is
// *session (sim.Never before its first boot).
func (b *dayBuckets) observe(session *sim.Time, r core.Record) {
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

// addUptime splits the closed session [lo, hi) across its day buckets as
// integer nanoseconds, so summed uptime stays exact.
func (b *dayBuckets) addUptime(lo, hi int64) {
	for lo < hi {
		d := lo / simDay
		end := (d + 1) * simDay
		if end > hi {
			end = hi
		}
		b.uptimeNs[int(d)] += end - lo
		lo = end
	}
}

// ---- windowed view: hard cutoff over the last N simulated days ----

// WindowSnapshot is the windowed view: every count covers the whole days
// [FromDay, ToDay], the last N simulated days ending at the latest observed
// day. An empty fold renders ToDay = -1.
type WindowSnapshot struct {
	Config        Config
	Devices       []string
	FromDay       int
	ToDay         int
	Records       int
	Panics        int
	Freezes       int
	SelfShutdowns int
	UserShutdowns int
	// UptimeHours counts closed boot-to-down sessions inside the window;
	// the open tail of a live device belongs to no bucket yet.
	UptimeHours   float64
	MTBF          MTBFReport
	PanicTable    []PanicRow
	FreezesPerDay float64
}

// window renders the last `days` whole simulated days (0 = the configured
// Config.Window), ending at the latest observed day — the live query
// tier's freeze-rate-over-last-N-days view. Devices is left to the caller.
func (b *dayBuckets) window(days int) *WindowSnapshot {
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

// ---- decaying view: exponential half-life weights ----

// DecayRow is one row of the decaying panic leaderboard.
type DecayRow struct {
	Key     string
	Weight  float64
	Percent float64
	Meaning string
}

// DecaySnapshot is the exponentially-decaying view as of the latest
// observed day: a bucket d days old weighs 2^(-d/halfLifeDays).
type DecaySnapshot struct {
	Config        Config
	Devices       []string
	AsOfDay       int
	Panics        float64
	Freezes       float64
	SelfShutdowns float64
	UserShutdowns float64
	UptimeHours   float64
	MTBFHours     float64
	PanicTable    []DecayRow
}

// decay renders every bucket under Config.DecayHalfLife weights, applied
// in ascending-day order over the exact integer state. Devices is left to
// the caller.
func (b *dayBuckets) decay() *DecaySnapshot {
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

// decayScalars fills the decaying view's scalars — AsOfDay, the freeze,
// shutdown and uptime sums and the MTBF they give — in ascending-day
// order, and hands each day's weight to perDay when it is set. decay (which
// folds its panic leaderboard in perDay) and the live mtbf answer (which
// needs only the scalars) both call it, so both add the same floats in the
// same order.
func (b *dayBuckets) decayScalars(snap *DecaySnapshot, perDay func(d int, w float64)) {
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
