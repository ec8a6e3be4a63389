package stream

import (
	"fmt"
	"slices"

	"symfail/internal/core"
)

// accBase carries the cursor plumbing shared by every cursor-fed
// accumulator: config, the per-device cursor set, and the seal flag.
type accBase struct {
	cfg    Config
	cs     *cursorSet
	sealed bool
}

func (b *accBase) observe(name, id string, r core.Record) {
	if b.sealed {
		panic("stream: " + name + ".Observe after Seal")
	}
	b.cs.observe(id, r)
}

func (b *accBase) addDevice(name, id string) {
	if b.sealed {
		panic("stream: " + name + ".AddDevice after Seal")
	}
	b.cs.add(id)
}

func (b *accBase) mergeBase(o *accBase, name string) error {
	if b.sealed || o.sealed {
		return fmt.Errorf("%w: %s", ErrSealed, name)
	}
	if b.cfg != o.cfg {
		return fmt.Errorf("%w: %s", ErrConfigMismatch, name)
	}
	if err := b.cs.merge(o.cs); err != nil {
		return err
	}
	o.sealed = true
	return nil
}

// seal finishes every cursor and returns the canonical device order.
func (b *accBase) seal() []string {
	b.sealed = true
	b.cs.finish()
	return b.cs.devices()
}

// ---- Tables: the composite accumulator behind `-stream` ----

// TablesSnapshot is every paper table and figure of the field study,
// computed in one streaming pass. RebootDurations is kept raw — O(shutdown
// events), the one deliberate exception to the O(devices + bins) envelope —
// so Figure 2 can be histogrammed at any binning and its median stays exact.
type TablesSnapshot struct {
	Config             Config
	Devices            []string
	RebootDurations    []float64
	ExplainedShutdowns int
	UserShutdowns      int
	MTBF               MTBFReport
	PanicTable         []PanicRow
	CategoryShare      map[string]float64
	Bursts             BurstStats
	Coalescence        CoalescenceStats
	// RelatedPercentAllShutdowns is the section 6 robustness check: the
	// related share when user shutdowns count as HL events too.
	RelatedPercentAllShutdowns float64
	Activity                   []ActivityRow
	RealTimeActivitySharePct   float64
	// RunningApps is Figure 6's histogram, folded at RunningAppsCap.
	RunningApps map[int]int
	AppTable    []AppPanicRow
	// TopApps is the full app-share ranking; renderers truncate.
	TopApps []AppShare
}

// Tables streams every experiment at once: one cursor set fanning finalized
// events out to all reducers.
type Tables struct {
	accBase
	panics   *panicRed
	reboots  *rebootRed
	mtbf     *mtbfRed
	coal     *coalRed
	bursts   *burstRed
	activity *activityRed
	apps     *appsRed
	snap     *TablesSnapshot
}

// NewTables builds the composite accumulator with the given thresholds.
func NewTables(cfg Config) *Tables {
	t := &Tables{
		panics:   newPanicRed(),
		reboots:  newRebootRed(),
		mtbf:     newMTBFRed(),
		coal:     newCoalRed(),
		bursts:   newBurstRed(),
		activity: newActivityRed(),
		apps:     newAppsRed(),
	}
	t.cfg = cfg.WithDefaults()
	t.cs = newCursorSet(t.cfg, t)
	return t
}

// Tables is its own event sink, fanning out to the reducers.

func (t *Tables) panicDone(id string, p *PanicEvent, relatedAll bool) {
	t.panics.panicDone(id, p, relatedAll)
	t.coal.panicDone(id, p, relatedAll)
	t.bursts.panicDone(id, p, relatedAll)
	t.activity.panicDone(id, p, relatedAll)
	t.apps.panicDone(id, p, relatedAll)
}

func (t *Tables) hlDone(id string, hl *HLEvent) {
	t.mtbf.hlDone(id, hl)
	t.coal.hlDone(id, hl)
}

func (t *Tables) rebootDone(id string, off float64)   { t.reboots.rebootDone(id, off) }
func (t *Tables) explainedDone(id string)             { t.reboots.explainedDone(id) }
func (t *Tables) uptimeDone(id string, hours float64) { t.mtbf.uptimeDone(id, hours) }

// Observe folds one record in.
func (t *Tables) Observe(deviceID string, r core.Record) { t.observe("Tables", deviceID, r) }

// AddDevice registers a device that may have zero records.
func (t *Tables) AddDevice(deviceID string) { t.addDevice("Tables", deviceID) }

// Merge absorbs a device-disjoint partial accumulator.
func (t *Tables) Merge(other Accumulator) error {
	o, ok := other.(*Tables)
	if !ok {
		return typeErr("Tables", other)
	}
	if err := t.mergeBase(&o.accBase, "Tables"); err != nil {
		return err
	}
	t.panics.merge(o.panics)
	t.reboots.merge(o.reboots)
	t.mtbf.merge(o.mtbf)
	t.coal.merge(o.coal)
	t.bursts.merge(o.bursts)
	t.activity.merge(o.activity)
	t.apps.merge(o.apps)
	return nil
}

// Snapshot returns the current epoch's *TablesSnapshot. On a live
// accumulator it deep-clones the pending cursor state, finishes the clone
// and renders from it — Observe may continue afterwards. On a sealed
// accumulator it returns the cached final snapshot.
func (t *Tables) Snapshot() any {
	if t.sealed {
		return t.Tables()
	}
	return t.epoch().Tables()
}

// Seal finalizes the accumulator destructively (the batch path): further
// Merges return ErrSealed and further Observes panic.
func (t *Tables) Seal() { t.Tables() }

// epoch deep-clones the live accumulator: reducers first, then the cursor
// set with the clone as its event sink.
func (t *Tables) epoch() *Tables {
	c := &Tables{
		panics:   t.panics.clone(),
		reboots:  t.reboots.clone(),
		mtbf:     t.mtbf.clone(),
		coal:     t.coal.clone(),
		bursts:   t.bursts.clone(),
		activity: t.activity.clone(),
		apps:     t.apps.clone(),
	}
	c.cfg = t.cfg
	c.cs = t.cs.clone(c)
	return c
}

// Tables finalizes (sealing the accumulator) and returns every table.
func (t *Tables) Tables() *TablesSnapshot {
	if t.snap != nil {
		return t.snap
	}
	devices := t.seal()
	hours := t.mtbf.hours(devices)
	t.snap = &TablesSnapshot{
		Config:                     t.cfg,
		Devices:                    devices,
		RebootDurations:            t.reboots.all(devices),
		ExplainedShutdowns:         t.reboots.explained,
		UserShutdowns:              t.mtbf.users,
		MTBF:                       MTBFOf(hours, t.mtbf.freezes, t.mtbf.selfs),
		PanicTable:                 t.panics.rows(),
		CategoryShare:              t.panics.shares(),
		Bursts:                     t.bursts.stats(),
		Coalescence:                t.coal.stats(),
		RelatedPercentAllShutdowns: t.coal.relatedAllPercent(),
		Activity:                   t.activity.rows(),
		RealTimeActivitySharePct:   t.activity.realTimeShare(),
		RunningApps:                t.apps.hist(),
		AppTable:                   t.apps.table(),
		TopApps:                    t.apps.top(0),
	}
	return t.snap
}

// Peek reports progress without sealing.
func (t *Tables) Peek() Peek {
	return Peek{
		Devices:  len(t.cs.cursors),
		Records:  t.cs.records,
		Panics:   t.panics.total,
		HLEvents: t.mtbf.freezes + t.mtbf.selfs + t.mtbf.users,
		Reboots:  t.reboots.count,
	}
}

// ---- Collect: the event-collecting accumulator behind the Study façade ----

// CollectSnapshot summarises a finished Collect.
type CollectSnapshot struct {
	Devices            []string
	Records            int
	Panics             int
	HLEvents           int
	Reboots            int
	ExplainedShutdowns int
	UptimeHours        float64
}

// Collect runs the device cursors and keeps the finalized events — it is
// the streaming builder behind analysis.Study (via analysis.FromCollect)
// and deliberately O(events), not O(bins): the façade's recomputable
// methods (window sweeps, refits) need the events themselves.
type Collect struct {
	accBase
	panics    map[string][]*PanicEvent
	hls       map[string][]*HLEvent
	durs      map[string][]float64
	uptime    map[string]float64
	explained int
	nPanics   int
	nHLs      int
	nReboots  int
}

// NewCollect builds an event-collecting accumulator.
func NewCollect(cfg Config) *Collect {
	c := &Collect{
		panics: make(map[string][]*PanicEvent),
		hls:    make(map[string][]*HLEvent),
		durs:   make(map[string][]float64),
		uptime: make(map[string]float64),
	}
	c.cfg = cfg.WithDefaults()
	c.cs = newCursorSet(c.cfg, c)
	return c
}

func (c *Collect) panicDone(id string, p *PanicEvent, _ bool) {
	c.panics[id] = append(c.panics[id], p)
	c.nPanics++
}

func (c *Collect) hlDone(id string, hl *HLEvent) {
	c.hls[id] = append(c.hls[id], hl)
	c.nHLs++
}

func (c *Collect) rebootDone(id string, off float64) {
	c.durs[id] = append(c.durs[id], off)
	c.nReboots++
}

func (c *Collect) explainedDone(string) { c.explained++ }

func (c *Collect) uptimeDone(id string, hours float64) { c.uptime[id] = hours }

// Observe folds one record in.
func (c *Collect) Observe(deviceID string, r core.Record) { c.observe("Collect", deviceID, r) }

// AddDevice registers a device that may have zero records.
func (c *Collect) AddDevice(deviceID string) { c.addDevice("Collect", deviceID) }

// Merge absorbs a device-disjoint partial accumulator.
func (c *Collect) Merge(other Accumulator) error {
	o, ok := other.(*Collect)
	if !ok {
		return typeErr("Collect", other)
	}
	if err := c.mergeBase(&o.accBase, "Collect"); err != nil {
		return err
	}
	for id, v := range o.panics {
		c.panics[id] = v
	}
	for id, v := range o.hls {
		c.hls[id] = v
	}
	for id, v := range o.durs {
		c.durs[id] = v
	}
	for id, v := range o.uptime {
		c.uptime[id] = v
	}
	c.explained += o.explained
	c.nPanics += o.nPanics
	c.nHLs += o.nHLs
	c.nReboots += o.nReboots
	return nil
}

// Finish seals the accumulator and flushes all pending cursor state so the
// event accessors are complete. Idempotent.
func (c *Collect) Finish() {
	c.sealed = true
	c.cs.finish()
}

// Seal is Finish: the destructive seal of the batch path.
func (c *Collect) Seal() { c.Finish() }

// epoch deep-clones the live accumulator. Finalized events are immutable
// once emitted, so the event slices copy their headers but share the
// events; the pending cursor graph is deep-copied.
func (c *Collect) epoch() *Collect {
	o := NewCollect(c.cfg)
	for id, v := range c.panics {
		o.panics[id] = slices.Clone(v)
	}
	for id, v := range c.hls {
		o.hls[id] = slices.Clone(v)
	}
	for id, v := range c.durs {
		o.durs[id] = slices.Clone(v)
	}
	for id, v := range c.uptime {
		o.uptime[id] = v
	}
	o.explained = c.explained
	o.nPanics = c.nPanics
	o.nHLs = c.nHLs
	o.nReboots = c.nReboots
	o.cs = c.cs.clone(o)
	return o
}

// Snapshot returns the current epoch's *CollectSnapshot; on a live
// accumulator the pending state is finished in a deep copy, so Observe may
// continue afterwards.
func (c *Collect) Snapshot() any {
	cc := c
	if !c.sealed {
		cc = c.epoch()
	}
	cc.Finish()
	devices := cc.cs.devices()
	var hours float64
	for _, id := range devices {
		hours += cc.uptime[id]
	}
	return &CollectSnapshot{
		Devices:            devices,
		Records:            cc.cs.records,
		Panics:             cc.nPanics,
		HLEvents:           cc.nHLs,
		Reboots:            cc.nReboots,
		ExplainedShutdowns: cc.explained,
		UptimeHours:        hours,
	}
}

// Peek reports progress without sealing.
func (c *Collect) Peek() Peek {
	return Peek{
		Devices:  len(c.cs.cursors),
		Records:  c.cs.records,
		Panics:   c.nPanics,
		HLEvents: c.nHLs,
		Reboots:  c.nReboots,
	}
}

// Config returns the thresholds in use (defaults applied).
func (c *Collect) Config() Config { return c.cfg }

// Devices returns the observed device IDs, sorted. Call Finish first.
func (c *Collect) Devices() []string { return c.cs.devices() }

// PanicsOf returns one device's finalized panics, time-ordered. The slice
// is owned by the caller after Finish; Collect never mutates it again.
func (c *Collect) PanicsOf(deviceID string) []*PanicEvent { return c.panics[deviceID] }

// HLEventsOf returns one device's finalized HL events, time-ordered.
func (c *Collect) HLEventsOf(deviceID string) []*HLEvent { return c.hls[deviceID] }

// RebootDurationsOf returns one device's reboot durations, record-ordered.
func (c *Collect) RebootDurationsOf(deviceID string) []float64 { return c.durs[deviceID] }

// ExplainedShutdowns returns the count of low-battery and logger-off boots.
func (c *Collect) ExplainedShutdowns() int { return c.explained }

// UptimeOf returns one device's uptime estimate in hours.
func (c *Collect) UptimeOf(deviceID string) float64 { return c.uptime[deviceID] }

// ---- Single-experiment accumulators ----

// PanicTableAcc streams Table 2 (panic frequencies) alone.
type PanicTableAcc struct {
	accBase
	red  *panicRed
	snap []PanicRow
}

// NewPanicTableAcc builds the Table 2 accumulator.
func NewPanicTableAcc(cfg Config) *PanicTableAcc {
	a := &PanicTableAcc{red: newPanicRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *PanicTableAcc) Observe(deviceID string, r core.Record) {
	a.observe("PanicTableAcc", deviceID, r)
}

// Merge absorbs a device-disjoint partial accumulator.
func (a *PanicTableAcc) Merge(other Accumulator) error {
	o, ok := other.(*PanicTableAcc)
	if !ok {
		return typeErr("PanicTableAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "PanicTableAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's []PanicRow without sealing a live
// accumulator; a sealed one returns the cached final rows.
func (a *PanicTableAcc) Snapshot() any {
	if a.sealed {
		return a.Rows()
	}
	c := &PanicTableAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.Rows()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *PanicTableAcc) Seal() { a.Rows() }

// Rows finalizes (sealing the accumulator) and returns Table 2.
func (a *PanicTableAcc) Rows() []PanicRow {
	if a.snap == nil {
		a.seal()
		a.snap = a.red.rows()
	}
	return a.snap
}

// RebootAcc streams Figure 2's reboot durations and the explained-shutdown
// count alone.
type RebootAcc struct {
	accBase
	red  *rebootRed
	snap *RebootSnapshot
}

// RebootSnapshot is RebootAcc's result.
type RebootSnapshot struct {
	Durations          []float64
	ExplainedShutdowns int
}

// NewRebootAcc builds the Figure 2 accumulator.
func NewRebootAcc(cfg Config) *RebootAcc {
	a := &RebootAcc{red: newRebootRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *RebootAcc) Observe(deviceID string, r core.Record) { a.observe("RebootAcc", deviceID, r) }

// Merge absorbs a device-disjoint partial accumulator.
func (a *RebootAcc) Merge(other Accumulator) error {
	o, ok := other.(*RebootAcc)
	if !ok {
		return typeErr("RebootAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "RebootAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's *RebootSnapshot without sealing a
// live accumulator; a sealed one returns the cached final snapshot.
func (a *RebootAcc) Snapshot() any {
	if a.sealed {
		return a.finalize()
	}
	c := &RebootAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.finalize()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *RebootAcc) Seal() { a.finalize() }

func (a *RebootAcc) finalize() *RebootSnapshot {
	if a.snap == nil {
		devices := a.seal()
		a.snap = &RebootSnapshot{Durations: a.red.all(devices), ExplainedShutdowns: a.red.explained}
	}
	return a.snap
}

// MTBFAcc streams the section 6 headline alone.
type MTBFAcc struct {
	accBase
	red  *mtbfRed
	snap *MTBFReport
}

// NewMTBFAcc builds the MTBF/uptime accumulator.
func NewMTBFAcc(cfg Config) *MTBFAcc {
	a := &MTBFAcc{red: newMTBFRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *MTBFAcc) Observe(deviceID string, r core.Record) { a.observe("MTBFAcc", deviceID, r) }

// Merge absorbs a device-disjoint partial accumulator.
func (a *MTBFAcc) Merge(other Accumulator) error {
	o, ok := other.(*MTBFAcc)
	if !ok {
		return typeErr("MTBFAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "MTBFAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's MTBFReport without sealing a live
// accumulator; a sealed one returns the cached final report.
func (a *MTBFAcc) Snapshot() any {
	if a.sealed {
		return a.Report()
	}
	c := &MTBFAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.Report()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *MTBFAcc) Seal() { a.Report() }

// Report finalizes (sealing the accumulator) and returns the headline.
func (a *MTBFAcc) Report() MTBFReport {
	if a.snap == nil {
		devices := a.seal()
		rep := MTBFOf(a.red.hours(devices), a.red.freezes, a.red.selfs)
		a.snap = &rep
	}
	return *a.snap
}

// CoalescenceAcc streams Figure 5 alone.
type CoalescenceAcc struct {
	accBase
	red  *coalRed
	snap *CoalescenceStats
}

// NewCoalescenceAcc builds the Figure 5 accumulator.
func NewCoalescenceAcc(cfg Config) *CoalescenceAcc {
	a := &CoalescenceAcc{red: newCoalRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *CoalescenceAcc) Observe(deviceID string, r core.Record) {
	a.observe("CoalescenceAcc", deviceID, r)
}

// Merge absorbs a device-disjoint partial accumulator.
func (a *CoalescenceAcc) Merge(other Accumulator) error {
	o, ok := other.(*CoalescenceAcc)
	if !ok {
		return typeErr("CoalescenceAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "CoalescenceAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's CoalescenceStats without sealing a
// live accumulator; a sealed one returns the cached final stats.
func (a *CoalescenceAcc) Snapshot() any {
	if a.sealed {
		return a.Stats()
	}
	c := &CoalescenceAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.Stats()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *CoalescenceAcc) Seal() { a.Stats() }

// Stats finalizes (sealing the accumulator) and returns Figure 5's data.
func (a *CoalescenceAcc) Stats() CoalescenceStats {
	if a.snap == nil {
		a.seal()
		st := a.red.stats()
		a.snap = &st
	}
	return *a.snap
}

// BurstAcc streams Figure 3 alone.
type BurstAcc struct {
	accBase
	red  *burstRed
	snap *BurstStats
}

// NewBurstAcc builds the Figure 3 accumulator.
func NewBurstAcc(cfg Config) *BurstAcc {
	a := &BurstAcc{red: newBurstRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *BurstAcc) Observe(deviceID string, r core.Record) { a.observe("BurstAcc", deviceID, r) }

// Merge absorbs a device-disjoint partial accumulator.
func (a *BurstAcc) Merge(other Accumulator) error {
	o, ok := other.(*BurstAcc)
	if !ok {
		return typeErr("BurstAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "BurstAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's BurstStats without sealing a live
// accumulator; a sealed one returns the cached final stats.
func (a *BurstAcc) Snapshot() any {
	if a.sealed {
		return a.Stats()
	}
	c := &BurstAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.Stats()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *BurstAcc) Seal() { a.Stats() }

// Stats finalizes (sealing the accumulator) and returns Figure 3's data.
func (a *BurstAcc) Stats() BurstStats {
	if a.snap == nil {
		a.seal()
		st := a.red.stats()
		a.snap = &st
	}
	return *a.snap
}

// ActivityAcc streams Table 3 alone.
type ActivityAcc struct {
	accBase
	red  *activityRed
	snap []ActivityRow
}

// NewActivityAcc builds the Table 3 accumulator.
func NewActivityAcc(cfg Config) *ActivityAcc {
	a := &ActivityAcc{red: newActivityRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *ActivityAcc) Observe(deviceID string, r core.Record) {
	a.observe("ActivityAcc", deviceID, r)
}

// Merge absorbs a device-disjoint partial accumulator.
func (a *ActivityAcc) Merge(other Accumulator) error {
	o, ok := other.(*ActivityAcc)
	if !ok {
		return typeErr("ActivityAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "ActivityAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's []ActivityRow without sealing a
// live accumulator; a sealed one returns the cached final rows.
func (a *ActivityAcc) Snapshot() any {
	if a.sealed {
		return a.Rows()
	}
	c := &ActivityAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.Rows()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *ActivityAcc) Seal() { a.Rows() }

// Rows finalizes (sealing the accumulator) and returns Table 3.
func (a *ActivityAcc) Rows() []ActivityRow {
	if a.snap == nil {
		a.seal()
		a.snap = a.red.rows()
	}
	return a.snap
}

// AppsAcc streams Figure 6 and Table 4 alone.
type AppsAcc struct {
	accBase
	red  *appsRed
	snap *AppsSnapshot
}

// AppsSnapshot is AppsAcc's result.
type AppsSnapshot struct {
	RunningApps map[int]int
	AppTable    []AppPanicRow
	TopApps     []AppShare
}

// NewAppsAcc builds the Figure 6 / Table 4 accumulator.
func NewAppsAcc(cfg Config) *AppsAcc {
	a := &AppsAcc{red: newAppsRed()}
	a.cfg = cfg.WithDefaults()
	a.cs = newCursorSet(a.cfg, a.red)
	return a
}

// Observe folds one record in.
func (a *AppsAcc) Observe(deviceID string, r core.Record) { a.observe("AppsAcc", deviceID, r) }

// Merge absorbs a device-disjoint partial accumulator.
func (a *AppsAcc) Merge(other Accumulator) error {
	o, ok := other.(*AppsAcc)
	if !ok {
		return typeErr("AppsAcc", other)
	}
	if err := a.mergeBase(&o.accBase, "AppsAcc"); err != nil {
		return err
	}
	a.red.merge(o.red)
	return nil
}

// Snapshot returns the current epoch's *AppsSnapshot without sealing a
// live accumulator; a sealed one returns the cached final snapshot.
func (a *AppsAcc) Snapshot() any {
	if a.sealed {
		return a.finalize()
	}
	c := &AppsAcc{red: a.red.clone()}
	c.cfg = a.cfg
	c.cs = a.cs.clone(c.red)
	return c.finalize()
}

// Seal finalizes the accumulator destructively (the batch path).
func (a *AppsAcc) Seal() { a.finalize() }

func (a *AppsAcc) finalize() *AppsSnapshot {
	if a.snap == nil {
		a.seal()
		a.snap = &AppsSnapshot{RunningApps: a.red.hist(), AppTable: a.red.table(), TopApps: a.red.top(0)}
	}
	return a.snap
}
