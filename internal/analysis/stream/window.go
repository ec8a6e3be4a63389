package stream

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// This file holds the live tier's day fold: time-windowed and
// exponentially-decaying views of the failure stream. Unlike the cursor-fed
// reducers it folds raw records straight into a dense slice of per-sim-day
// counts — no pending event graph, no coalescence. A day holds integer
// record, freeze and shutdown counts, its closed-session uptime in
// nanoseconds, and its panics as a short list of (key id, count) sorted by
// key string; each panic key is interned once. Every cutoff and every
// floating-point weight is applied at render time, in canonical
// (ascending-day, sorted-key) order, so the fold re-renders without
// cloning, and each decay weight 2^(-age/halfLife) is computed once per
// age, when a new latest day first reaches it. The price is cursor-free
// semantics: a freeze or self-shutdown is classified directly from its
// boot record, and uptime counts closed boot-to-down sessions only (the
// open tail of a live device is still moving, so it belongs to no day
// yet). Days before the epoch are counted in no day: no view renders them.
//
// The counts fold in any order. Uptime does not: each boot closes the
// session opened by the boot last delivered for its device, so uptime (and
// every MTBF derived from it) depends on the order a device's records
// arrive in.

// simDay is the bucket width of the day fold.
const simDay = int64(24 * time.Hour)

// dayBuckets is LiveStudy's per-day fold. The devices' session starts live
// in LiveStudy's device state, which passes each one in.
type dayBuckets struct {
	cfg  Config
	days []dayCounts // indexed by day from 0; may run past maxDay (uptime)

	// The interned panic keys: ids maps (category, type) to an index
	// into keys (the "KERN-EXEC 3" form) and meanings.
	ids      map[panicID]int
	keys     []string
	meanings []string

	// decayW[age] is the decay weight of a day age days older than the
	// latest, for every age up to maxDay.
	decayW []float64

	maxDay  int
	hasData bool
}

// dayCounts is one simulated day of the fold.
type dayCounts struct {
	records, freezes, selfs, users int
	uptimeNs                       int64
	panics                         []keyCount // sorted by key string
}

// keyCount is one panic key's count on one day.
type keyCount struct {
	id, n int
}

func newDayBuckets(cfg Config) *dayBuckets {
	return &dayBuckets{cfg: cfg, ids: make(map[panicID]int)}
}

// at returns day d's counts, growing the fold to reach it; nil for a day
// before the epoch. A day is at most math.MaxInt64/simDay, so the fold
// holds at most ~107k days.
func (b *dayBuckets) at(d int) *dayCounts {
	if d < 0 {
		return nil
	}
	if d >= len(b.days) {
		b.days = append(b.days, make([]dayCounts, d+1-len(b.days))...)
	}
	return &b.days[d]
}

// touch records that day has data and returns its counts, as at does. A
// new latest day extends the decay weights to its age.
func (b *dayBuckets) touch(day int) *dayCounts {
	if !b.hasData || day > b.maxDay {
		b.maxDay, b.hasData = day, true
		halfDays := b.cfg.DecayHalfLife.Hours() / 24
		for age := len(b.decayW); age <= day; age++ {
			b.decayW = append(b.decayW, math.Exp2(-float64(age)/halfDays))
		}
	}
	return b.at(day)
}

// observe folds one record of the device whose fold session start is
// *session (sim.Never before its first boot).
func (b *dayBuckets) observe(session *sim.Time, r core.Record) {
	t := sim.Time(r.Time)
	if c := b.touch(t.Day()); c != nil {
		c.records++
		if r.Kind == core.KindPanic {
			b.addPanic(c, r)
		}
	}
	if r.Kind != core.KindBoot {
		return
	}
	if start := *session; start != sim.Never && r.PrevTime > int64(start) {
		b.addUptime(int64(start), r.PrevTime)
	}
	*session = t
	down := sim.Time(r.PrevTime).Day()
	switch r.Detected {
	case core.DetectedFreeze:
		if c := b.touch(down); c != nil {
			c.freezes++
		}
	case core.DetectedShutdown:
		if c := b.touch(down); c != nil {
			if b.cfg.selfShutdown(r.OffSeconds) {
				c.selfs++
			} else {
				c.users++
			}
		}
	}
}

// addPanic counts the panic record r on day c, interning its key on first
// sight.
func (b *dayBuckets) addPanic(c *dayCounts, r core.Record) {
	pid := panicID{r.Category, r.PType}
	id, ok := b.ids[pid]
	if !ok {
		id = len(b.keys)
		b.ids[pid] = id
		b.keys = append(b.keys, r.PanicKey())
		b.meanings = append(b.meanings, meaningOf(pid))
	}
	key := b.keys[id]
	i, found := slices.BinarySearchFunc(c.panics, key, func(kc keyCount, key string) int {
		return strings.Compare(b.keys[kc.id], key)
	})
	if found {
		c.panics[i].n++
		return
	}
	c.panics = slices.Insert(c.panics, i, keyCount{id: id, n: 1})
}

// addUptime splits the closed session [lo, hi) across its days as integer
// nanoseconds, so summed uptime stays exact. Time before the epoch belongs
// to no day, so lo is clipped to 0 first: truncating a negative lo / simDay
// would put the pre-epoch part of a session booted less than a day early
// into day 0. A day's end is bounded by hi before it can overflow (the last
// representable day ends past math.MaxInt64).
func (b *dayBuckets) addUptime(lo, hi int64) {
	lo = max(lo, 0)
	for lo < hi {
		d := lo / simDay
		end := hi
		if d < math.MaxInt64/simDay && (d+1)*simDay < hi {
			end = (d + 1) * simDay
		}
		if c := b.at(int(d)); c != nil {
			c.uptimeNs += end - lo
		}
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
	snap := b.windowScalars(days)
	counts := make([]int, len(b.keys))
	for d := snap.FromDay; d <= snap.ToDay; d++ {
		for _, kc := range b.days[d].panics {
			counts[kc.id] += kc.n
			snap.Panics += kc.n
		}
	}
	if snap.Panics == 0 {
		return snap
	}
	rows := make([]PanicRow, 0, len(counts))
	for id, n := range counts {
		if n > 0 {
			rows = append(rows, PanicRow{
				Key:     b.keys[id],
				Count:   n,
				Percent: 100 * float64(n) / float64(snap.Panics),
				Meaning: b.meanings[id],
			})
		}
	}
	slices.SortFunc(rows, func(x, y PanicRow) int {
		if x.Count != y.Count {
			return cmp.Compare(y.Count, x.Count)
		}
		return strings.Compare(x.Key, y.Key)
	})
	snap.PanicTable = rows
	return snap
}

// windowScalars renders the windowed view without its panic count and
// table: all the live freezerate answer reads.
func (b *dayBuckets) windowScalars(days int) *WindowSnapshot {
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
	var uptime int64
	for d := snap.FromDay; d <= snap.ToDay; d++ {
		c := &b.days[d]
		snap.Records += c.records
		snap.Freezes += c.freezes
		snap.SelfShutdowns += c.selfs
		snap.UserShutdowns += c.users
		uptime += c.uptimeNs
	}
	snap.UptimeHours = float64(uptime) / float64(time.Second) / 3600
	snap.MTBF = MTBFOf(snap.UptimeHours, snap.Freezes, snap.SelfShutdowns)
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

// decay renders every day under Config.DecayHalfLife weights, applied
// in ascending-day, sorted-key order over the exact integer state. Devices
// is left to the caller.
func (b *dayBuckets) decay() *DecaySnapshot {
	snap := &DecaySnapshot{Config: b.cfg}
	b.decayScalars(snap)
	weights := make([]float64, len(b.keys))
	if b.hasData {
		for d := 0; d <= b.maxDay; d++ {
			w := b.decayW[b.maxDay-d]
			for _, kc := range b.days[d].panics {
				weights[kc.id] += w * float64(kc.n)
				snap.Panics += w * float64(kc.n)
			}
		}
	}
	rows := make([]DecayRow, len(weights))
	for id, w := range weights {
		rows[id] = DecayRow{Key: b.keys[id], Weight: w, Meaning: b.meanings[id]}
		if snap.Panics > 0 {
			rows[id].Percent = 100 * w / snap.Panics
		}
	}
	slices.SortFunc(rows, func(x, y DecayRow) int {
		if x.Weight != y.Weight {
			return cmp.Compare(y.Weight, x.Weight)
		}
		return strings.Compare(x.Key, y.Key)
	})
	snap.PanicTable = rows
	return snap
}

// decayScalars fills the decaying view's scalars — AsOfDay, the freeze,
// shutdown and uptime sums and the MTBF they give — in ascending-day
// order. decay and the live mtbf answer both call it, so both add the
// same floats in the same order.
func (b *dayBuckets) decayScalars(snap *DecaySnapshot) {
	snap.AsOfDay = -1
	if !b.hasData {
		return
	}
	snap.AsOfDay = b.maxDay
	for d := 0; d <= b.maxDay; d++ {
		w, c := b.decayW[b.maxDay-d], &b.days[d]
		snap.Freezes += w * float64(c.freezes)
		snap.SelfShutdowns += w * float64(c.selfs)
		snap.UserShutdowns += w * float64(c.users)
		snap.UptimeHours += w * (float64(c.uptimeNs) / float64(time.Second) / 3600)
	}
	if f := snap.Freezes + snap.SelfShutdowns; f > 0 {
		snap.MTBFHours = snap.UptimeHours / f
	}
}
