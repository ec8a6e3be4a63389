package stream

import (
	"sort"

	"symfail/internal/symbos"
)

// This file holds the per-experiment reducers: small folds over finalized
// events with O(bins + devices) state. Each table has exactly one fold,
// here; the tableSet (acc.go) fans every event a device cursor finalizes
// out to all seven, for the streaming Tables and for the Collect behind
// the batch Study alike. A reducer implements only the event methods it
// folds. Merges only add integers and union device-keyed maps; every float
// is derived at finalize time in canonical order.

// ---- Table 2: panic frequencies ----

// PanicRow is one row of the Table 2 reproduction.
type PanicRow struct {
	Key     string
	Count   int
	Percent float64
	Meaning string
}

type panicID struct {
	cat   string
	ptype int
}

type panicRed struct {
	counts map[string]int
	ids    map[string]panicID // key -> (category, type); key is injective
	cats   map[string]int
	total  int
}

func newPanicRed() *panicRed {
	return &panicRed{
		counts: make(map[string]int),
		ids:    make(map[string]panicID),
		cats:   make(map[string]int),
	}
}

func (r *panicRed) panicDone(_ string, p *PanicEvent, _ bool) {
	key := p.Key()
	r.counts[key]++
	r.ids[key] = panicID{p.Category, p.Type}
	r.cats[p.Category]++
	r.total++
}

func (r *panicRed) merge(o *panicRed) {
	for k, n := range o.counts {
		r.counts[k] += n
	}
	for k, id := range o.ids {
		r.ids[k] = id
	}
	for c, n := range o.cats {
		r.cats[c] += n
	}
	r.total += o.total
}

func (r *panicRed) rows() []PanicRow { return panicRowsFrom(r.counts, r.ids, r.total) }

func meaningOf(id panicID) string { return symbos.Meaning(symbos.Category(id.cat), id.ptype) }

// panicRowsFrom renders a Table 2-shaped ranking from key counts: shared
// by the cumulative panic reducer and the windowed accumulators.
func panicRowsFrom(counts map[string]int, ids map[string]panicID, total int) []PanicRow {
	rows := make([]PanicRow, 0, len(counts))
	for key, c := range counts {
		id := ids[key]
		rows = append(rows, PanicRow{
			Key:     key,
			Count:   c,
			Percent: 100 * float64(c) / float64(total),
			Meaning: meaningOf(id),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}

func (r *panicRed) shares() map[string]float64 {
	out := make(map[string]float64, len(r.cats))
	for cat, n := range r.cats {
		out[cat] = 100 * float64(n) / float64(r.total)
	}
	return out
}

// ---- Figure 2: reboot durations, plus explained shutdowns ----

type rebootRed struct {
	durs      map[string][]float64 // per device, record order
	count     int
	explained int
}

func newRebootRed() *rebootRed {
	return &rebootRed{durs: make(map[string][]float64)}
}

func (r *rebootRed) rebootDone(id string, off float64) {
	r.durs[id] = append(r.durs[id], off)
	r.count++
}

func (r *rebootRed) explainedDone(string) { r.explained++ }

func (r *rebootRed) merge(o *rebootRed) {
	for id, v := range o.durs {
		r.durs[id] = v
	}
	r.count += o.count
	r.explained += o.explained
}

// all concatenates the durations in the given (canonical) device order —
// the same order batch ingest appended them in.
func (r *rebootRed) all(devices []string) []float64 {
	var out []float64
	for _, id := range devices {
		out = append(out, r.durs[id]...)
	}
	return out
}

// ---- Section 6: MTBF / uptime ----

// MTBFReport is the section 6 headline: mean time between freezes, between
// self-shutdowns, and between failures of either kind.
type MTBFReport struct {
	ObservedHours float64
	Freezes       int
	SelfShutdowns int
	MTBFrHours    float64 // mean time between freezes
	MTBSHours     float64 // mean time between self-shutdowns
	MTBFHours     float64 // mean time between failures (either)
	// FailureEveryDays is the user-facing phrasing ("a failure every 11
	// days"), computed the way the paper phrases it: the average of the
	// per-kind inter-failure times, in days.
	FailureEveryDays float64
}

// MTBFOf computes the headline from observed hours and failure counts.
func MTBFOf(hours float64, freezes, selfShutdowns int) MTBFReport {
	rep := MTBFReport{ObservedHours: hours, Freezes: freezes, SelfShutdowns: selfShutdowns}
	if freezes > 0 {
		rep.MTBFrHours = hours / float64(freezes)
	}
	if selfShutdowns > 0 {
		rep.MTBSHours = hours / float64(selfShutdowns)
	}
	if freezes+selfShutdowns > 0 {
		rep.MTBFHours = hours / float64(freezes+selfShutdowns)
	}
	if rep.MTBFrHours > 0 && rep.MTBSHours > 0 {
		rep.FailureEveryDays = (rep.MTBFrHours + rep.MTBSHours) / 2 / 24
	}
	return rep
}

type mtbfRed struct {
	uptime  map[string]float64
	freezes int
	selfs   int
	users   int
}

func newMTBFRed() *mtbfRed { return &mtbfRed{uptime: make(map[string]float64)} }

func (r *mtbfRed) hlDone(_ string, hl *HLEvent) {
	switch hl.Kind {
	case HLFreeze:
		r.freezes++
	case HLSelfShutdown:
		r.selfs++
	case HLUserShutdown:
		r.users++
	}
}

func (r *mtbfRed) uptimeDone(id string, hours float64) { r.uptime[id] = hours }

func (r *mtbfRed) merge(o *mtbfRed) {
	for id, h := range o.uptime {
		r.uptime[id] = h
	}
	r.freezes += o.freezes
	r.selfs += o.selfs
	r.users += o.users
}

// hours sums uptime in the given (canonical) device order so the
// floating-point total is deterministic.
func (r *mtbfRed) hours(devices []string) float64 {
	var total float64
	for _, id := range devices {
		total += r.uptime[id]
	}
	return total
}

// ---- Figure 3: panic bursts ----

// BurstStats reproduces Figure 3: the distribution of panic cascade sizes.
type BurstStats struct {
	// SizeCounts maps cascade size -> number of cascades of that size.
	SizeCounts map[int]int
	// PanicsInBursts is the fraction of panics that belong to a cascade
	// of two or more (the paper reports ~25%).
	PanicsInBursts float64
	// TotalPanics and TotalBursts are the denominators.
	TotalPanics, TotalBursts int
}

type burstRed struct {
	sizeCounts  map[int]int
	lastBurst   map[string]int // device -> last cascade index counted
	totalPanics int
	totalBursts int
	inBursts    int
}

func newBurstRed() *burstRed {
	return &burstRed{sizeCounts: make(map[int]int), lastBurst: make(map[string]int)}
}

func (r *burstRed) panicDone(id string, p *PanicEvent, _ bool) {
	r.totalPanics++
	if p.BurstLen >= 2 {
		r.inBursts++
	}
	// Cascade indices are 1-based and contiguous per device, so a change
	// of index marks the first panic of a new cascade.
	if r.lastBurst[id] != p.Burst {
		r.lastBurst[id] = p.Burst
		r.sizeCounts[p.BurstLen]++
		r.totalBursts++
	}
}

func (r *burstRed) merge(o *burstRed) {
	for sz, n := range o.sizeCounts {
		r.sizeCounts[sz] += n
	}
	for id, b := range o.lastBurst {
		r.lastBurst[id] = b
	}
	r.totalPanics += o.totalPanics
	r.totalBursts += o.totalBursts
	r.inBursts += o.inBursts
}

func (r *burstRed) stats() BurstStats {
	st := BurstStats{
		SizeCounts:  make(map[int]int, len(r.sizeCounts)),
		TotalPanics: r.totalPanics,
		TotalBursts: r.totalBursts,
	}
	for sz, n := range r.sizeCounts {
		st.SizeCounts[sz] = n
	}
	if st.TotalPanics > 0 {
		st.PanicsInBursts = float64(r.inBursts) / float64(st.TotalPanics)
	}
	return st
}

// ---- Figure 5: panic / HL-event coalescence ----

// CoalescenceStats reproduces Figure 5: how panics relate to high-level
// events.
type CoalescenceStats struct {
	TotalPanics    int
	RelatedPanics  int     // coalesced with a freeze or self-shutdown
	RelatedPercent float64 // the paper reports 51%
	// ToFreeze/ToSelfShutdown split the related panics by HL kind.
	ToFreeze, ToSelfShutdown int
	// ByCategory maps panic key -> (related, total) counts, the basis of
	// Figure 5b.
	ByCategory map[string]RelatedCount
	// IsolatedHL counts high-level events with no panic in the window —
	// failures the panic stream cannot explain.
	IsolatedHL int
}

// RelatedCount pairs related and total panic counts for one panic key.
type RelatedCount struct {
	Related, Total           int
	ToFreeze, ToSelfShutdown int
}

type coalRed struct {
	total    int
	related  int
	toFreeze int
	toSelf   int
	byCat    map[string]RelatedCount
	isolated int
	relAll   int
}

func newCoalRed() *coalRed { return &coalRed{byCat: make(map[string]RelatedCount)} }

func (r *coalRed) panicDone(_ string, p *PanicEvent, relatedAll bool) {
	r.total++
	key := p.Key()
	rc := r.byCat[key]
	rc.Total++
	if p.Related != nil {
		r.related++
		rc.Related++
		switch p.Related.Kind {
		case HLFreeze:
			r.toFreeze++
			rc.ToFreeze++
		case HLSelfShutdown:
			r.toSelf++
			rc.ToSelfShutdown++
		}
	}
	r.byCat[key] = rc
	if relatedAll {
		r.relAll++
	}
}

func (r *coalRed) hlDone(_ string, hl *HLEvent) {
	if (hl.Kind == HLFreeze || hl.Kind == HLSelfShutdown) && !hl.refd {
		r.isolated++
	}
}

func (r *coalRed) merge(o *coalRed) {
	r.total += o.total
	r.related += o.related
	r.toFreeze += o.toFreeze
	r.toSelf += o.toSelf
	for k, rc := range o.byCat {
		cur := r.byCat[k]
		cur.Related += rc.Related
		cur.Total += rc.Total
		cur.ToFreeze += rc.ToFreeze
		cur.ToSelfShutdown += rc.ToSelfShutdown
		r.byCat[k] = cur
	}
	r.isolated += o.isolated
	r.relAll += o.relAll
}

func (r *coalRed) stats() CoalescenceStats {
	st := CoalescenceStats{
		TotalPanics:    r.total,
		RelatedPanics:  r.related,
		ToFreeze:       r.toFreeze,
		ToSelfShutdown: r.toSelf,
		ByCategory:     make(map[string]RelatedCount, len(r.byCat)),
		IsolatedHL:     r.isolated,
	}
	for k, rc := range r.byCat {
		st.ByCategory[k] = rc
	}
	if st.TotalPanics > 0 {
		st.RelatedPercent = 100 * float64(st.RelatedPanics) / float64(st.TotalPanics)
	}
	return st
}

func (r *coalRed) relatedAllPercent() float64 {
	if r.total == 0 {
		return 0
	}
	return 100 * float64(r.relAll) / float64(r.total)
}

// ---- Table 3: panic-activity relationship ----

// ActivityRow is one row of the Table 3 reproduction: HL-related panics by
// user activity.
type ActivityRow struct {
	Activity string
	// ByCategory maps panic category -> percent of all HL-related panics.
	ByCategory map[string]float64
	Total      float64
}

type activityRed struct {
	counts  map[string]map[string]int // activity -> category -> count
	related int
	rt      int // voice-call or message
}

func newActivityRed() *activityRed {
	return &activityRed{counts: make(map[string]map[string]int)}
}

func (r *activityRed) panicDone(_ string, p *PanicEvent, _ bool) {
	if p.Related == nil {
		return
	}
	r.related++
	act := p.Activity
	if act == "" {
		act = "unspecified"
	}
	if r.counts[act] == nil {
		r.counts[act] = make(map[string]int)
	}
	r.counts[act][p.Category]++
	if p.Activity == "voice-call" || p.Activity == "message" {
		r.rt++
	}
}

func (r *activityRed) merge(o *activityRed) {
	for act, byCat := range o.counts {
		if r.counts[act] == nil {
			r.counts[act] = make(map[string]int, len(byCat))
		}
		for cat, n := range byCat {
			r.counts[act][cat] += n
		}
	}
	r.related += o.related
	r.rt += o.rt
}

// rows renders the table. Row totals are accumulated in sorted category
// order so the float sum is deterministic.
func (r *activityRed) rows() []ActivityRow {
	activities := make([]string, 0, len(r.counts))
	for act := range r.counts {
		activities = append(activities, act)
	}
	sort.Strings(activities)
	rows := make([]ActivityRow, 0, len(activities))
	for _, act := range activities {
		byCat := r.counts[act]
		cats := make([]string, 0, len(byCat))
		for cat := range byCat {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		row := ActivityRow{Activity: act, ByCategory: make(map[string]float64, len(cats))}
		for _, cat := range cats {
			pct := 100 * float64(byCat[cat]) / float64(r.related)
			row.ByCategory[cat] = pct
			row.Total += pct
		}
		rows = append(rows, row)
	}
	return rows
}

func (r *activityRed) realTimeShare() float64 {
	if r.related == 0 {
		return 0
	}
	return 100 * float64(r.rt) / float64(r.related)
}

// ---- Figure 6 / Table 4: running applications ----

// RunningAppsCap is the histogram fold point used by Figure 6 and the
// streaming snapshot: panics with more running apps count into this bin.
const RunningAppsCap = 8

// AppPanicRow is one row of the Table 4 reproduction: for an outcome
// (freeze / self-shutdown / none) and panic category, the percentage of
// panics that had each application running.
type AppPanicRow struct {
	Outcome  string // "freeze", "self-shutdown", or "none"
	Category string
	// ByApp maps application name -> percent of all panics.
	ByApp map[string]float64
}

// AppShare pairs an application with its share of panics.
type AppShare struct {
	App     string
	Percent float64
}

type appCell struct{ outcome, cat, app string }

type appsRed struct {
	cells     map[appCell]int
	appCounts map[string]int
	runApps   map[int]int // folded at RunningAppsCap
	total     int
}

func newAppsRed() *appsRed {
	return &appsRed{
		cells:     make(map[appCell]int),
		appCounts: make(map[string]int),
		runApps:   make(map[int]int),
	}
}

func (r *appsRed) panicDone(_ string, p *PanicEvent, _ bool) {
	r.total++
	outcome := "none"
	if p.Related != nil {
		outcome = string(p.Related.Kind)
	}
	for _, app := range p.Apps {
		r.cells[appCell{outcome, p.Category, app}]++
		r.appCounts[app]++
	}
	n := len(p.Apps)
	if n > RunningAppsCap {
		n = RunningAppsCap
	}
	r.runApps[n]++
}

func (r *appsRed) merge(o *appsRed) {
	for c, n := range o.cells {
		r.cells[c] += n
	}
	for app, n := range o.appCounts {
		r.appCounts[app] += n
	}
	for k, n := range o.runApps {
		r.runApps[k] += n
	}
	r.total += o.total
}

func (r *appsRed) table() []AppPanicRow {
	if r.total == 0 {
		return nil
	}
	grouped := make(map[string]map[string]float64)
	for c, n := range r.cells {
		key := c.outcome + "\x00" + c.cat
		if grouped[key] == nil {
			grouped[key] = make(map[string]float64)
		}
		grouped[key][c.app] = 100 * float64(n) / float64(r.total)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]AppPanicRow, 0, len(keys))
	for _, k := range keys {
		var outcome, cat string
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				outcome, cat = k[:i], k[i+1:]
				break
			}
		}
		rows = append(rows, AppPanicRow{Outcome: outcome, Category: cat, ByApp: grouped[k]})
	}
	return rows
}

// top ranks every app by its share of panics; renderers truncate.
func (r *appsRed) top() []AppShare {
	shares := make([]AppShare, 0, len(r.appCounts))
	for app, c := range r.appCounts {
		shares = append(shares, AppShare{App: app, Percent: 100 * float64(c) / float64(r.total)})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Percent != shares[j].Percent {
			return shares[i].Percent > shares[j].Percent
		}
		return shares[i].App < shares[j].App
	})
	return shares
}

func (r *appsRed) hist() map[int]int {
	out := make(map[int]int, len(r.runApps))
	for k, n := range r.runApps {
		out[k] = n
	}
	return out
}
