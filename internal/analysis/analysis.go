// Package analysis implements the paper's failure-data analysis pipeline on
// collected logger datasets: self-shutdown identification by
// reboot-duration thresholding (Figure 2), MTBF estimation (section 6),
// panic classification (Table 2), panic-burst detection (Figure 3),
// panic/high-level-event coalescence (Figures 4 and 5), panic-activity
// correlation (Table 3), and running-application correlation (Figure 6 and
// Table 4).
//
// The pipeline consumes only what the logger recorded — the same position
// the paper's authors were in. The simulator's oracle is used exclusively
// by tests to validate the pipeline.
//
// Since the streaming refactor (DESIGN.md §11) the package is a façade over
// internal/analysis/stream: Study is built by feeding records through a
// stream.Collect accumulator (the same per-device cursors the online path
// uses), whose reducers fold every paper table in that one pass. The table
// methods read the resulting stream.TablesSnapshot, so each table has one
// fold, shared with the streaming stream.Tables; only the Figure 4 window
// sweep and the extras re-scan the kept events.
package analysis

import (
	"sort"

	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// Options tunes the analysis thresholds, defaulting to the paper's choices.
// It is an alias of stream.Config: batch and streaming runs share one
// threshold type.
type Options = stream.Config

// DefaultOptions returns the paper's thresholds.
func DefaultOptions() Options { return stream.DefaultConfig() }

// HLKind classifies high-level (user-perceived) failure events.
type HLKind = stream.HLKind

// High-level event kinds. UserShutdown is not a failure; it is kept so the
// "include all shutdown events" robustness check of section 6 can run.
const (
	HLFreeze       = stream.HLFreeze
	HLSelfShutdown = stream.HLSelfShutdown
	HLUserShutdown = stream.HLUserShutdown
)

// HLEvent is one reconstructed high-level event.
type HLEvent = stream.HLEvent

// PanicEvent is one panic record enriched by the pipeline.
type PanicEvent = stream.PanicEvent

// MTBFReport is the section 6 headline: mean time between freezes, between
// self-shutdowns, and between failures of either kind.
type MTBFReport = stream.MTBFReport

// Study is a parsed, per-device-ordered dataset with derived events.
type Study struct {
	opts Options

	deviceIDs []string
	// Per-device, time-ordered.
	hlByDevice     map[string][]*HLEvent
	panicsByDevice map[string][]*PanicEvent
	// Uptime estimate per device, in hours.
	uptime map[string]float64
	// snap is every paper table, folded while the events were derived.
	snap *stream.TablesSnapshot
}

// New builds a study from collected per-device records, computing derived
// events, bursts and coalescence once — by streaming each device's records
// (time-ordered) through the same cursor pipeline the online path uses.
func New(dataset map[string][]core.Record, opts Options) *Study {
	c := stream.NewCollect(opts)
	ids := make([]string, 0, len(dataset))
	for id := range dataset {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c.AddDevice(id)
		ordered := append([]core.Record(nil), dataset[id]...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })
		for _, r := range ordered {
			c.Observe(id, r)
		}
	}
	return FromCollect(c)
}

// FromCollect adopts a stream.Collect accumulator's finalized events and
// tables as a Study, sealing the accumulator first. The events transfer
// ownership: the sealed accumulator never touches them again.
func FromCollect(c *stream.Collect) *Study {
	s := &Study{
		opts:           c.Config(),
		hlByDevice:     make(map[string][]*HLEvent),
		panicsByDevice: make(map[string][]*PanicEvent),
		uptime:         make(map[string]float64),
		snap:           c.Tables(),
	}
	for _, id := range c.Devices() {
		s.deviceIDs = append(s.deviceIDs, id)
		if evs := c.PanicsOf(id); len(evs) > 0 {
			s.panicsByDevice[id] = evs
		}
		if hls := c.HLEventsOf(id); len(hls) > 0 {
			s.hlByDevice[id] = hls
		}
		s.uptime[id] = c.UptimeOf(id)
	}
	return s
}

// Devices returns the device IDs in the study.
func (s *Study) Devices() []string { return append([]string(nil), s.deviceIDs...) }

// Options returns the thresholds in use.
func (s *Study) Options() Options { return s.opts }

// allPanics returns the internal panic events (shared pointers), ordered by
// device then time. Internal use only: mutating them would corrupt the
// study's coalescence state.
func (s *Study) allPanics() []*PanicEvent {
	var out []*PanicEvent
	for _, id := range s.deviceIDs {
		out = append(out, s.panicsByDevice[id]...)
	}
	return out
}

// allHLs returns the internal high-level events of the given kinds (all
// kinds when none specified), ordered by device then time. Shared pointers;
// internal use only.
func (s *Study) allHLs(kinds ...HLKind) []*HLEvent {
	want := make(map[HLKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []*HLEvent
	for _, id := range s.deviceIDs {
		for _, hl := range s.hlByDevice[id] {
			if len(kinds) == 0 || want[hl.Kind] {
				out = append(out, hl)
			}
		}
	}
	return out
}

// hlCopies deep-copies every high-level event, returning the copy map so
// panic copies can re-point their Related fields consistently.
func (s *Study) hlCopies() map[*HLEvent]*HLEvent {
	copies := make(map[*HLEvent]*HLEvent)
	for _, id := range s.deviceIDs {
		for _, hl := range s.hlByDevice[id] {
			cp := *hl
			copies[hl] = &cp
		}
	}
	return copies
}

// Panics returns every panic event, ordered by device then time.
//
// The events are deep copies: the study's internal coalescence state cannot
// be mutated through them, and pointer identity is not preserved across
// calls (a panic's Related points at a copy consistent within this call's
// result, not at an event returned by HLEvents).
func (s *Study) Panics() []*PanicEvent {
	copies := s.hlCopies()
	var out []*PanicEvent
	for _, id := range s.deviceIDs {
		for _, p := range s.panicsByDevice[id] {
			cp := *p
			cp.Apps = append([]string(nil), p.Apps...)
			if p.Related != nil {
				cp.Related = copies[p.Related]
			}
			out = append(out, &cp)
		}
	}
	return out
}

// HLEvents returns every high-level event of the given kinds (all kinds
// when none specified), ordered by device then time.
//
// The events are deep copies; see Panics.
func (s *Study) HLEvents(kinds ...HLKind) []*HLEvent {
	var out []*HLEvent
	for _, hl := range s.allHLs(kinds...) {
		cp := *hl
		out = append(out, &cp)
	}
	return out
}

// RebootDurations returns the reboot duration (seconds) of every orderly
// shutdown event — the data behind Figure 2.
func (s *Study) RebootDurations() []float64 {
	return append([]float64(nil), s.snap.RebootDurations...)
}

// RebootHistogram bins the reboot durations (Figure 2); lo/hi in seconds.
func (s *Study) RebootHistogram(lo, hi float64, bins int) *sim.Histogram {
	h := sim.NewHistogram(lo, hi, bins)
	for _, v := range s.snap.RebootDurations {
		h.Add(v)
	}
	return h
}

// ExplainedShutdowns returns the count of low-battery and logger-off boots.
func (s *Study) ExplainedShutdowns() int { return s.snap.ExplainedShutdowns }

// UptimeHours returns the estimated powered-on hours, per device and total.
func (s *Study) UptimeHours() (perDevice map[string]float64, total float64) {
	perDevice = make(map[string]float64, len(s.uptime))
	// Sum in sorted device order so the floating-point total is
	// deterministic across runs.
	for _, id := range s.deviceIDs {
		h := s.uptime[id]
		perDevice[id] = h
		total += h
	}
	return perDevice, total
}

// MTBF returns the study's failure-rate headline.
func (s *Study) MTBF() MTBFReport { return s.snap.MTBF }
