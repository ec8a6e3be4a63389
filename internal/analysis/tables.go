package analysis

import (
	"sort"
	"time"

	"symfail/internal/analysis/stream"
)

// Every table method in this file delegates to the reducers in
// internal/analysis/stream — the same code the streaming Tables accumulator
// runs — so the batch and streaming paths cannot drift apart.

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
	seen := make(map[string]bool)
	for _, p := range s.allPanics() {
		if key := p.Key(); !KnownPanicKeys[key] && !seen[key] {
			seen[key] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// PanicRow is one row of the Table 2 reproduction.
type PanicRow = stream.PanicRow

// PanicTable reproduces Table 2: panic category/type frequencies with the
// Symbian documentation excerpts.
func (s *Study) PanicTable() []PanicRow {
	return stream.PanicTableRows(s.allPanics())
}

// CategoryShare sums the percentage of panics whose category matches
// (e.g. "E32USER-CBase" across all its types).
func (s *Study) CategoryShare(category string) float64 {
	return stream.CategoryShareOf(s.allPanics(), category)
}

// BurstStats reproduces Figure 3: the distribution of panic cascade sizes.
type BurstStats = stream.BurstStats

// Bursts computes the cascade statistics.
func (s *Study) Bursts() BurstStats {
	return stream.BurstStatsOf(s.deviceIDs, s.panicsByDevice)
}

// CoalescenceStats reproduces Figure 5: how panics relate to high-level
// events.
type CoalescenceStats = stream.CoalescenceStats

// RelatedCount pairs related and total panic counts for one panic key.
type RelatedCount = stream.RelatedCount

// Coalesce computes panic/HL-event relations at the configured window.
func (s *Study) Coalesce() CoalescenceStats {
	return stream.CoalescenceStatsOf(s.allPanics(), s.allHLs(HLFreeze, HLSelfShutdown))
}

// RelatedPercentWithAllShutdowns re-runs coalescence counting user
// shutdowns as high-level events — the paper's robustness check: the
// related share rises only ~4 points, confirming that the filtered events
// were user-triggered.
func (s *Study) RelatedPercentWithAllShutdowns() float64 {
	s.coalesceAll(s.opts.CoalescenceWindow, true)
	related, total := 0, 0
	for _, p := range s.allPanics() {
		total++
		if p.Related != nil {
			related++
		}
	}
	// Restore the standard coalescence.
	s.coalesceAll(s.opts.CoalescenceWindow, false)
	if total == 0 {
		return 0
	}
	return 100 * float64(related) / float64(total)
}

// WindowSweepPoint is one point of the Figure 4 window-size justification.
type WindowSweepPoint struct {
	Window  time.Duration
	Related int
}

// WindowSweep recomputes the number of related panics for each candidate
// coalescence window. The knee of this curve is why the paper fixes the
// window at five minutes.
func (s *Study) WindowSweep(windows []time.Duration) []WindowSweepPoint {
	out := make([]WindowSweepPoint, 0, len(windows))
	for _, w := range windows {
		s.coalesceAll(w, false)
		related := 0
		for _, p := range s.allPanics() {
			if p.Related != nil {
				related++
			}
		}
		out = append(out, WindowSweepPoint{Window: w, Related: related})
	}
	s.coalesceAll(s.opts.CoalescenceWindow, false)
	return out
}

// ActivityRow is one row of the Table 3 reproduction: HL-related panics by
// user activity.
type ActivityRow = stream.ActivityRow

// ActivityTable reproduces Table 3: the user activity at the time of
// HL-related panics. Percentages are of the total number of related panics.
func (s *Study) ActivityTable() []ActivityRow {
	return stream.ActivityRowsOf(s.allPanics())
}

// RealTimeActivityShare returns the percentage of HL-related panics that
// occurred during a voice call or message — the paper reports ~45%.
func (s *Study) RealTimeActivityShare() float64 {
	return stream.RealTimeShareOf(s.allPanics())
}

// RunningAppsHistogram reproduces Figure 6: the number of running
// applications at panic time.
func (s *Study) RunningAppsHistogram(maxApps int) map[int]int {
	return stream.RunningAppsHistogramOf(s.allPanics(), maxApps)
}

// AppPanicRow is one row of the Table 4 reproduction: for an outcome
// (freeze / self-shutdown / none) and panic category, the percentage of
// panics that had each application running.
type AppPanicRow = stream.AppPanicRow

// AppPanicTable reproduces Table 4: the panic/running-application
// relationship, split by high-level outcome.
func (s *Study) AppPanicTable() []AppPanicRow {
	return stream.AppPanicTableOf(s.allPanics())
}

// AppShare pairs an application with its share of panics.
type AppShare = stream.AppShare

// TopPanicApps returns the applications most frequently running at panic
// time, as (app, share-percent) pairs sorted descending — the paper singles
// out Messages, Camera, the Bluetooth browser and the call Log.
func (s *Study) TopPanicApps(n int) []AppShare {
	return stream.TopPanicAppsOf(s.allPanics(), n)
}

// Snapshot computes the full streaming table set from the batch study —
// the byte-identity bridge the equivalence tests compare against a
// stream.Tables snapshot of the same records.
func (s *Study) Snapshot() *stream.TablesSnapshot {
	_, hours := s.UptimeHours()
	return &stream.TablesSnapshot{
		Config:                     s.opts,
		Devices:                    s.Devices(),
		RebootDurations:            s.RebootDurations(),
		ExplainedShutdowns:         s.explainedShutdowns,
		UserShutdowns:              len(s.allHLs(HLUserShutdown)),
		MTBF:                       stream.MTBFOf(hours, len(s.allHLs(HLFreeze)), len(s.allHLs(HLSelfShutdown))),
		PanicTable:                 s.PanicTable(),
		CategoryShare:              s.categoryShares(),
		Bursts:                     s.Bursts(),
		Coalescence:                s.Coalesce(),
		RelatedPercentAllShutdowns: s.RelatedPercentWithAllShutdowns(),
		Activity:                   s.ActivityTable(),
		RealTimeActivitySharePct:   s.RealTimeActivityShare(),
		RunningApps:                s.RunningAppsHistogram(stream.RunningAppsCap),
		AppTable:                   s.AppPanicTable(),
		TopApps:                    s.TopPanicApps(0),
	}
}

// categoryShares mirrors the streaming panic reducer's per-category shares.
func (s *Study) categoryShares() map[string]float64 {
	counts := make(map[string]int)
	total := 0
	for _, p := range s.allPanics() {
		counts[p.Category]++
		total++
	}
	out := make(map[string]float64, len(counts))
	for cat, n := range counts {
		out[cat] = 100 * float64(n) / float64(total)
	}
	return out
}
