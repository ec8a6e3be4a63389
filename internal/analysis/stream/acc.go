package stream

import (
	"fmt"

	"symfail/internal/core"
)

// tableSet is the one fold behind every paper table: the cursor plumbing
// (config, per-device cursor set, seal flag) and the seven reducers the
// cursors' finalized events fan out to. Tables is a tableSet; Collect
// embeds one and also keeps the events, so the streaming accumulator and
// the batch Study (via analysis.FromCollect) read their tables from the
// same reducers.
type tableSet struct {
	cfg    Config
	cs     *cursorSet
	sealed bool

	panics   *panicRed
	reboots  *rebootRed
	mtbf     *mtbfRed
	coal     *coalRed
	bursts   *burstRed
	activity *activityRed
	apps     *appsRed
	snap     *TablesSnapshot
}

// init starts empty reducers, with sink (the embedding accumulator) as the
// cursors' event sink.
func (s *tableSet) init(cfg Config, sink evsink) {
	s.cfg = cfg.WithDefaults()
	s.cs = newCursorSet(s.cfg, sink)
	s.panics = newPanicRed()
	s.reboots = newRebootRed()
	s.mtbf = newMTBFRed()
	s.coal = newCoalRed()
	s.bursts = newBurstRed()
	s.activity = newActivityRed()
	s.apps = newAppsRed()
}

// The set is an event sink itself, fanning every event out to the reducers.

func (s *tableSet) panicDone(id string, p *PanicEvent, relatedAll bool) {
	s.panics.panicDone(id, p, relatedAll)
	s.coal.panicDone(id, p, relatedAll)
	s.bursts.panicDone(id, p, relatedAll)
	s.activity.panicDone(id, p, relatedAll)
	s.apps.panicDone(id, p, relatedAll)
}

func (s *tableSet) hlDone(id string, hl *HLEvent) {
	s.mtbf.hlDone(id, hl)
	s.coal.hlDone(id, hl)
}

func (s *tableSet) rebootDone(id string, off float64)   { s.reboots.rebootDone(id, off) }
func (s *tableSet) explainedDone(id string)             { s.reboots.explainedDone(id) }
func (s *tableSet) uptimeDone(id string, hours float64) { s.mtbf.uptimeDone(id, hours) }

func (s *tableSet) observe(name, id string, r core.Record) {
	if s.sealed {
		panic("stream: " + name + ".Observe after Seal")
	}
	s.cs.observe(id, r)
}

func (s *tableSet) addDevice(name, id string) {
	if s.sealed {
		panic("stream: " + name + ".AddDevice after Seal")
	}
	s.cs.add(id)
}

// merge absorbs o's cursors and reducers and seals o.
func (s *tableSet) merge(o *tableSet, name string) error {
	if s.sealed || o.sealed {
		return fmt.Errorf("%w: %s", ErrSealed, name)
	}
	if s.cfg != o.cfg {
		return fmt.Errorf("%w: %s", ErrConfigMismatch, name)
	}
	if err := s.cs.merge(o.cs); err != nil {
		return err
	}
	o.sealed = true
	s.panics.merge(o.panics)
	s.reboots.merge(o.reboots)
	s.mtbf.merge(o.mtbf)
	s.coal.merge(o.coal)
	s.bursts.merge(o.bursts)
	s.activity.merge(o.activity)
	s.apps.merge(o.apps)
	return nil
}

// finish seals the set and flushes every cursor. Idempotent.
func (s *tableSet) finish() {
	s.sealed = true
	s.cs.finish()
}

// Tables finalizes (sealing the accumulator, flushing every cursor) and
// returns every table. The snapshot is cached: later calls return it.
func (s *tableSet) Tables() *TablesSnapshot {
	if s.snap != nil {
		return s.snap
	}
	s.finish()
	devices := s.cs.devices()
	s.snap = &TablesSnapshot{
		Config:                     s.cfg,
		Devices:                    devices,
		RebootDurations:            s.reboots.all(devices),
		ExplainedShutdowns:         s.reboots.explained,
		UserShutdowns:              s.mtbf.users,
		MTBF:                       MTBFOf(s.mtbf.hours(devices), s.mtbf.freezes, s.mtbf.selfs),
		PanicTable:                 s.panics.rows(),
		CategoryShare:              s.panics.shares(),
		Bursts:                     s.bursts.stats(),
		Coalescence:                s.coal.stats(),
		RelatedPercentAllShutdowns: s.coal.relatedAllPercent(),
		Activity:                   s.activity.rows(),
		RealTimeActivitySharePct:   s.activity.realTimeShare(),
		RunningApps:                s.apps.hist(),
		AppTable:                   s.apps.table(),
		TopApps:                    s.apps.top(),
	}
	return s.snap
}

// Peek reports progress without sealing.
func (s *tableSet) Peek() Peek {
	return Peek{
		Devices:  len(s.cs.cursors),
		Records:  s.cs.records,
		Panics:   s.panics.total,
		HLEvents: s.mtbf.freezes + s.mtbf.selfs + s.mtbf.users,
		Reboots:  s.reboots.count,
	}
}

// ---- Tables: the composite accumulator behind every paper table ----

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
	tableSet
}

// NewTables builds the composite accumulator with the given thresholds.
func NewTables(cfg Config) *Tables {
	t := &Tables{}
	t.init(cfg, t)
	return t
}

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
	return t.merge(&o.tableSet, "Tables")
}

// Snapshot seals the accumulator and returns its *TablesSnapshot.
func (t *Tables) Snapshot() any { return t.Tables() }

// Seal finalizes the accumulator destructively (the batch path): further
// Merges return ErrSealed and further Observes panic.
func (t *Tables) Seal() { t.Tables() }

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
// the streaming builder behind analysis.Study (via analysis.FromCollect).
// Its embedded tableSet folds the paper tables from the same events in the
// same pass; the events themselves are kept, O(events) rather than
// O(bins), because the Study's recomputable methods (window sweeps,
// refits) need them.
type Collect struct {
	tableSet
	panicEvs map[string][]*PanicEvent
	hlEvs    map[string][]*HLEvent
}

// NewCollect builds an event-collecting accumulator.
func NewCollect(cfg Config) *Collect {
	c := &Collect{
		panicEvs: make(map[string][]*PanicEvent),
		hlEvs:    make(map[string][]*HLEvent),
	}
	c.init(cfg, c)
	return c
}

// Collect keeps each panic and HL event, then forwards it to the reducers;
// the other events go to the reducers alone.

func (c *Collect) panicDone(id string, p *PanicEvent, relatedAll bool) {
	c.panicEvs[id] = append(c.panicEvs[id], p)
	c.tableSet.panicDone(id, p, relatedAll)
}

func (c *Collect) hlDone(id string, hl *HLEvent) {
	c.hlEvs[id] = append(c.hlEvs[id], hl)
	c.tableSet.hlDone(id, hl)
}

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
	if err := c.merge(&o.tableSet, "Collect"); err != nil {
		return err
	}
	for id, v := range o.panicEvs {
		c.panicEvs[id] = v
	}
	for id, v := range o.hlEvs {
		c.hlEvs[id] = v
	}
	return nil
}

// Finish seals the accumulator and flushes all pending cursor state so the
// event accessors are complete. Idempotent.
func (c *Collect) Finish() { c.finish() }

// Seal is Finish: the destructive seal of the batch path.
func (c *Collect) Seal() { c.Finish() }

// Snapshot seals the accumulator (Finish) and returns its
// *CollectSnapshot.
func (c *Collect) Snapshot() any {
	c.Finish()
	devices := c.cs.devices()
	p := c.Peek()
	return &CollectSnapshot{
		Devices:            devices,
		Records:            p.Records,
		Panics:             p.Panics,
		HLEvents:           p.HLEvents,
		Reboots:            p.Reboots,
		ExplainedShutdowns: c.reboots.explained,
		UptimeHours:        c.mtbf.hours(devices),
	}
}

// Config returns the thresholds in use (defaults applied).
func (c *Collect) Config() Config { return c.cfg }

// Devices returns the observed device IDs, sorted. Call Finish first.
func (c *Collect) Devices() []string { return c.cs.devices() }

// PanicsOf returns one device's finalized panics, time-ordered. The slice
// is owned by the caller after Finish; Collect never mutates it again.
func (c *Collect) PanicsOf(deviceID string) []*PanicEvent { return c.panicEvs[deviceID] }

// HLEventsOf returns one device's finalized HL events, time-ordered.
func (c *Collect) HLEventsOf(deviceID string) []*HLEvent { return c.hlEvs[deviceID] }

// UptimeOf returns one device's uptime estimate in hours.
func (c *Collect) UptimeOf(deviceID string) float64 { return c.mtbf.uptime[deviceID] }
