package analysis

import (
	"sort"
	"time"

	"symfail/internal/analysis/stream"
)

// Every table method in this file reads the Study's TablesSnapshot, which
// the stream package's reducers folded while FromCollect's accumulator
// derived the events — the same fold the streaming Tables accumulator runs,
// so the batch and streaming tables agree by construction. The returned
// values share the snapshot's maps and slices: read them, do not modify
// them. Only WindowSweep re-scans the events.

// KnownPanicKeys is the closed panic taxonomy of the study: every
// "Category Type" pair from Table 2 of the paper, i.e. every panic the
// simulator can mechanistically raise. The `symlint` panictaxonomy analyzer
// statically cross-checks this table against the raise sites in
// internal/symbos and internal/phone in both directions, so adding a panic
// to the simulator without classifying it here (or vice versa) fails
// `make lint`.
var KnownPanicKeys = map[string]bool{
	"KERN-EXEC 0":      true,
	"KERN-EXEC 3":      true,
	"KERN-EXEC 15":     true,
	"KERN-SVR 0":       true,
	"E32USER-CBase 33": true,
	"E32USER-CBase 46": true,
	"E32USER-CBase 47": true,
	"E32USER-CBase 69": true,
	"E32USER-CBase 91": true,
	"E32USER-CBase 92": true,
	"USER 10":          true,
	"USER 11":          true,
	"USER 70":          true,
	"ViewSrv 11":       true,
	"EIKON-LISTBOX 3":  true,
	"EIKON-LISTBOX 5":  true,
	"EIKCOCTL 70":      true,
	"Phone.app 2":      true,
	"MSGS Client 3":    true,
	"MMFAudioClient 4": true,
}

// UnclassifiedPanicKeys returns the observed panic keys that fall outside
// the taxonomy, sorted. A non-empty result means the event stream contains
// panics the study tables would report without a documented meaning — the
// dynamic counterpart of the static symlint check.
func (s *Study) UnclassifiedPanicKeys() []string {
	var keys []string
	for _, row := range s.snap.PanicTable {
		if !KnownPanicKeys[row.Key] {
			keys = append(keys, row.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// PanicRow is one row of the Table 2 reproduction.
type PanicRow = stream.PanicRow

// PanicTable reproduces Table 2: panic category/type frequencies with the
// Symbian documentation excerpts.
func (s *Study) PanicTable() []PanicRow { return s.snap.PanicTable }

// CategoryShare sums the percentage of panics whose category matches
// (e.g. "E32USER-CBase" across all its types).
func (s *Study) CategoryShare(category string) float64 { return s.snap.CategoryShare[category] }

// BurstStats reproduces Figure 3: the distribution of panic cascade sizes.
type BurstStats = stream.BurstStats

// Bursts returns the cascade statistics.
func (s *Study) Bursts() BurstStats { return s.snap.Bursts }

// CoalescenceStats reproduces Figure 5: how panics relate to high-level
// events.
type CoalescenceStats = stream.CoalescenceStats

// RelatedCount pairs related and total panic counts for one panic key.
type RelatedCount = stream.RelatedCount

// Coalesce returns the panic/HL-event relations at the configured window.
func (s *Study) Coalesce() CoalescenceStats { return s.snap.Coalescence }

// WindowSweepPoint is one point of the Figure 4 window-size justification.
type WindowSweepPoint struct {
	Window  time.Duration
	Related int
}

// WindowSweep counts, for each candidate coalescence window, the panics
// that window relates to a high-level event: a panic is related at window w
// when its nearest freeze or self-shutdown on the same device is at most w
// away (the device cursor's coalescence rule). The knee of this curve is
// why the paper fixes the window at five minutes. The Study's events are
// read, not rewritten.
func (s *Study) WindowSweep(windows []time.Duration) []WindowSweepPoint {
	var gaps []time.Duration // each panic's gap to its nearest failure
	for _, id := range s.deviceIDs {
		for _, p := range s.panicsByDevice[id] {
			nearest := time.Duration(-1)
			for _, hl := range s.hlByDevice[id] {
				if hl.Kind == HLUserShutdown {
					continue
				}
				gap := hl.Time.Sub(p.Time)
				if gap < 0 {
					gap = -gap
				}
				if nearest < 0 || gap < nearest {
					nearest = gap
				}
			}
			if nearest >= 0 {
				gaps = append(gaps, nearest)
			}
		}
	}
	out := make([]WindowSweepPoint, 0, len(windows))
	for _, w := range windows {
		related := 0
		for _, gap := range gaps {
			if gap <= w {
				related++
			}
		}
		out = append(out, WindowSweepPoint{Window: w, Related: related})
	}
	return out
}

// ActivityRow is one row of the Table 3 reproduction: HL-related panics by
// user activity.
type ActivityRow = stream.ActivityRow

// RealTimeActivityShare returns the percentage of HL-related panics that
// occurred during a voice call or message — the paper reports ~45%.
func (s *Study) RealTimeActivityShare() float64 { return s.snap.RealTimeActivitySharePct }

// AppPanicRow is one row of the Table 4 reproduction: for an outcome
// (freeze / self-shutdown / none) and panic category, the percentage of
// panics that had each application running.
type AppPanicRow = stream.AppPanicRow

// AppShare pairs an application with its share of panics.
type AppShare = stream.AppShare

// Snapshot returns every paper table and figure of the study, as folded by
// the stream package's reducers; it equals a stream.Tables snapshot of the
// same records. The snapshot is shared, not copied: callers must not
// modify it.
func (s *Study) Snapshot() *stream.TablesSnapshot { return s.snap }
