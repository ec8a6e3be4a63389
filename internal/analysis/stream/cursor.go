package stream

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// evsink receives the finalized events a deviceCursor emits. Per device,
// panics arrive in time order, HL events arrive in time order, and reboot
// durations arrive in record order — the orders Collect keeps them in.
type evsink interface {
	// panicDone delivers a panic with Burst, BurstLen and Related final.
	// relatedAll reports whether any HL event — user shutdowns included —
	// fell inside the coalescence window (the section 6 robustness check).
	panicDone(deviceID string, p *PanicEvent, relatedAll bool)
	// hlDone delivers an HL event after every panic that can coalesce
	// with it has been finalized, so p.refd is final.
	hlDone(deviceID string, hl *HLEvent)
	rebootDone(deviceID string, offSeconds float64)
	explainedDone(deviceID string)
	// uptimeDone delivers the device's total uptime estimate, exactly
	// once, when the cursor finishes.
	uptimeDone(deviceID string, hours float64)
}

// pendingPanic is a panic whose burst or coalescence is not yet final.
type pendingPanic struct {
	ev        *PanicEvent
	burstOpen bool
	// best / bestGap track the nearest non-user HL event seen so far
	// (the standard coalescence); bestAll additionally admits user
	// shutdowns. Ties keep the earlier event, like the batch scan.
	best       *HLEvent
	bestGap    time.Duration
	bestAll    *HLEvent
	bestAllGap time.Duration
}

func (p *pendingPanic) consider(hl *HLEvent, window time.Duration) {
	gap := hl.Time.Sub(p.ev.Time)
	if gap < 0 {
		gap = -gap
	}
	if gap > window {
		return
	}
	if p.bestAll == nil || gap < p.bestAllGap {
		p.bestAll, p.bestAllGap = hl, gap
	}
	if hl.Kind == HLUserShutdown {
		return
	}
	if p.best == nil || gap < p.bestGap {
		p.best, p.bestGap = hl, gap
	}
}

// deviceCursor is the single-pass replacement for the batch
// ingest/markBursts/coalesce trio: it derives HL events, panics, reboot
// durations and uptime from one device's record stream, holding only the
// events whose burst or coalescence window is still open. An event is
// emitted once no later record can change it:
//
//   - a panic, once its burst is closed (a later panic arrived more than
//     BurstWindow after it, fixing BurstLen) and no future HL event can
//     fall inside its coalescence window — future down events happen no
//     earlier than max(latest HL time, current session start);
//   - an HL event, once the latest record time is more than the window
//     past it (later records, hence later panics, are at least that far
//     away) and no pending panic holds it as current best (so refd is
//     final when the event leaves the cursor).
type deviceCursor struct {
	id   string
	cfg  Config
	sink evsink

	sessions
	lastSeen sim.Time

	hls    []*HLEvent // open-window HL events, time-ordered
	lastHL sim.Time
	hasHL  bool

	panics    []*pendingPanic // not-yet-finalized panics, time-ordered
	open      []*pendingPanic // members of the still-open burst
	burst     int
	lastPanic sim.Time
	hasPanic  bool

	finished bool
}

func newCursor(id string, cfg Config, sink evsink) *deviceCursor {
	return &deviceCursor{id: id, cfg: cfg, sink: sink, sessions: sessions{sessionStart: sim.Never}}
}

// sessions is a device's uptime estimate: each boot closes the session the
// previous boot opened, at the down time the boot reports, and the open
// session runs until the last record seen. LiveStudy keeps one per device
// too, so its exact MTBF adds the same floats in the same order as Tables.
type sessions struct {
	sessionStart sim.Time // sim.Never before the first boot
	uptime       float64  // closed sessions, hours
}

// boot closes the open session at the boot's down time and opens the next.
func (s *sessions) boot(r core.Record) {
	if s.sessionStart != sim.Never && r.PrevTime > int64(s.sessionStart) {
		s.uptime += sim.Time(r.PrevTime).Sub(s.sessionStart).Hours()
	}
	s.sessionStart = r.When()
}

// hours is the uptime with the open session closed at lastSeen.
func (s *sessions) hours(lastSeen sim.Time) float64 {
	if s.sessionStart != sim.Never && lastSeen > s.sessionStart {
		return s.uptime + lastSeen.Sub(s.sessionStart).Hours()
	}
	return s.uptime
}

func (c *deviceCursor) observe(r core.Record) {
	if r.Time > int64(c.lastSeen) {
		c.lastSeen = sim.Time(r.Time)
	}
	switch r.Kind {
	case core.KindPanic:
		ev := &PanicEvent{
			Device:   c.id,
			Time:     r.When(),
			Category: r.Category,
			Type:     r.PType,
			Apps:     append([]string(nil), r.Apps...),
			Activity: r.Activity,
		}
		if !c.hasPanic || ev.Time.Sub(c.lastPanic) > c.cfg.BurstWindow {
			c.closeBurst()
			c.burst++
		}
		c.lastPanic, c.hasPanic = ev.Time, true
		ev.Burst = c.burst
		pp := &pendingPanic{ev: ev, burstOpen: true}
		for _, hl := range c.hls {
			pp.consider(hl, c.cfg.CoalescenceWindow)
		}
		c.open = append(c.open, pp)
		c.panics = append(c.panics, pp)
	case core.KindBoot:
		c.boot(r)
		switch r.Detected {
		case core.DetectedFreeze:
			c.addHL(&HLEvent{Device: c.id, Kind: HLFreeze, Time: sim.Time(r.PrevTime), OffSeconds: r.OffSeconds})
		case core.DetectedShutdown:
			c.sink.rebootDone(c.id, r.OffSeconds)
			kind := HLUserShutdown
			if c.cfg.selfShutdown(r.OffSeconds) {
				kind = HLSelfShutdown
			}
			c.addHL(&HLEvent{Device: c.id, Kind: kind, Time: sim.Time(r.PrevTime), OffSeconds: r.OffSeconds})
		case core.DetectedLowBattery, core.DetectedLoggerOff:
			c.sink.explainedDone(c.id)
		}
	}
	c.advance(false)
}

// addHL inserts the event keeping the open window time-ordered (stable:
// equal times keep arrival order, like the batch stable sort) and offers it
// to every pending panic.
func (c *deviceCursor) addHL(hl *HLEvent) {
	i := len(c.hls)
	for i > 0 && c.hls[i-1].Time > hl.Time {
		i--
	}
	c.hls = append(c.hls, nil)
	copy(c.hls[i+1:], c.hls[i:])
	c.hls[i] = hl
	if !c.hasHL || hl.Time > c.lastHL {
		c.lastHL, c.hasHL = hl.Time, true
	}
	for _, pp := range c.panics {
		pp.consider(hl, c.cfg.CoalescenceWindow)
	}
}

// closeBurst fixes BurstLen for the open cascade.
func (c *deviceCursor) closeBurst() {
	n := len(c.open)
	for _, pp := range c.open {
		pp.ev.BurstLen = n
		pp.burstOpen = false
	}
	c.open = c.open[:0]
}

// advance emits every event that can no longer change. With final set, the
// record stream has ended: everything pending is flushed, panics first so
// refd is final before the HL events leave.
func (c *deviceCursor) advance(final bool) {
	window := c.cfg.CoalescenceWindow
	for len(c.panics) > 0 {
		pp := c.panics[0]
		if !final {
			if pp.burstOpen {
				break
			}
			// The next down event can be no earlier than this floor;
			// past floor-window the candidate set is complete.
			floor := c.sessionStart
			if c.hasHL && c.lastHL > floor {
				floor = c.lastHL
			}
			if floor == sim.Never || floor.Sub(pp.ev.Time) <= window {
				break
			}
		}
		pp.ev.Related = pp.best
		if pp.best != nil {
			pp.best.refd = true
		}
		c.sink.panicDone(c.id, pp.ev, pp.bestAll != nil)
		c.panics[0] = nil
		c.panics = c.panics[1:]
	}
	for len(c.hls) > 0 {
		hl := c.hls[0]
		if !final && c.lastSeen.Sub(hl.Time) <= window {
			break
		}
		if c.pendingRefs(hl) {
			break
		}
		c.sink.hlDone(c.id, hl)
		c.hls[0] = nil
		c.hls = c.hls[1:]
	}
}

func (c *deviceCursor) pendingRefs(hl *HLEvent) bool {
	for _, pp := range c.panics {
		if pp.best == hl {
			return true
		}
	}
	return false
}

// finish flushes all pending state and reports the device's uptime. The
// final session runs until the last record seen. Idempotent.
func (c *deviceCursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.closeBurst()
	c.advance(true)
	c.sink.uptimeDone(c.id, c.hours(c.lastSeen))
}

// cursorSet owns one deviceCursor per observed device.
type cursorSet struct {
	cfg      Config
	sink     evsink
	cursors  map[string]*deviceCursor
	records  int
	finished bool
}

func newCursorSet(cfg Config, sink evsink) *cursorSet {
	return &cursorSet{cfg: cfg, sink: sink, cursors: make(map[string]*deviceCursor)}
}

// add registers a device (so devices whose logs hold zero records still
// appear in snapshots) and returns its cursor.
func (cs *cursorSet) add(id string) *deviceCursor {
	c := cs.cursors[id]
	if c == nil {
		c = newCursor(id, cs.cfg, cs.sink)
		cs.cursors[id] = c
	}
	return c
}

func (cs *cursorSet) observe(id string, r core.Record) {
	cs.add(id).observe(r)
	cs.records++
}

// merge adopts the other set's cursors, which keep their pending state but
// emit into this set's sink from now on. Device sets must be disjoint.
func (cs *cursorSet) merge(other *cursorSet) error {
	var overlap []string
	for id := range other.cursors {
		if _, ok := cs.cursors[id]; ok {
			overlap = append(overlap, id)
		}
	}
	if len(overlap) > 0 {
		sort.Strings(overlap)
		return fmt.Errorf("%w: %s", ErrDeviceOverlap, strings.Join(overlap, ", "))
	}
	for id, c := range other.cursors {
		c.sink = cs.sink
		cs.cursors[id] = c
	}
	cs.records += other.records
	return nil
}

// finish flushes every cursor, in sorted device order. Idempotent.
func (cs *cursorSet) finish() {
	if cs.finished {
		return
	}
	cs.finished = true
	for _, id := range cs.devices() {
		cs.cursors[id].finish()
	}
}

func (cs *cursorSet) devices() []string {
	if len(cs.cursors) == 0 {
		return nil
	}
	ids := make([]string, 0, len(cs.cursors))
	for id := range cs.cursors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
