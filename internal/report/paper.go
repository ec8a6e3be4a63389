package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/forum"
	"symfail/internal/sim"
)

// The field-study renderers below print each paper table and figure from a
// stream.TablesSnapshot. The batch path (analysis.Study.Snapshot) and the
// streaming path (stream.Tables) build the same snapshot from one reducer
// implementation, so both print byte-identical reports. Figure4Sweep alone
// takes a Study: the window sweep re-coalesces the events themselves.

// Table1 renders the forum study's failure-type × recovery-action joint
// distribution (paper Table 1).
func Table1(rep *forum.Report) string {
	headers := []string{"failure type", "reboot", "battery", "wait", "repeat", "service", "unrep.", "total"}
	var rows [][]string
	for _, ft := range forum.FailureTypes {
		row := []string{string(ft)}
		var total float64
		for _, rec := range forum.Recoveries {
			v := rep.JointPercent[ft][rec]
			total += v
			row = append(row, Pct(v))
		}
		row = append(row, fmt.Sprintf("%.1f", total))
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Table 1 — failure type x recovery action (%% of %d forum failures)", rep.FailureReports)
	return Table(title, headers, rows)
}

// Section41 renders the forum study marginals of section 4.1.
func Section41(rep *forum.Report) string {
	var b strings.Builder
	b.WriteString("Section 4.1 — forum study marginals\n")
	fmt.Fprintf(&b, "posts scanned: %d, failure reports: %d, smart-phone share: %.1f%%\n",
		rep.PostsScanned, rep.FailureReports, 100*rep.SmartShare)
	b.WriteString("failure types by frequency:\n")
	for _, ft := range rep.TypesByFrequency() {
		fmt.Fprintf(&b, "  %-18s %5.1f%%\n", ft, rep.TypePercent[ft])
	}
	b.WriteString("severity:\n")
	for _, sev := range []forum.Severity{forum.SevHigh, forum.SevMedium, forum.SevLow, forum.SevUnknown} {
		fmt.Fprintf(&b, "  %-8s %5.1f%%\n", sev, rep.SeverityPercent[sev])
	}
	b.WriteString("failures correlated with user activity:\n")
	for _, act := range []forum.ActivityTag{forum.ActCall, forum.ActText, forum.ActBluetooth, forum.ActImages} {
		fmt.Fprintf(&b, "  %-14s %5.1f%%\n", act, rep.ActivityPercent[act])
	}
	return b.String()
}

// Figure2FromSnapshot renders the reboot-duration distribution with the
// paper's two views: the full range and the sub-500 s zoom.
func Figure2FromSnapshot(sn *stream.TablesSnapshot) string {
	durs, selfs, threshold := sn.RebootDurations, sn.MTBF.SelfShutdowns, sn.Config.SelfShutdownThreshold
	var b strings.Builder
	b.WriteString("Figure 2 — distribution of reboot durations\n")
	fmt.Fprintf(&b, "shutdown events: %d\n", len(durs))
	if len(durs) > 0 {
		fmt.Fprintf(&b, "self-shutdowns (<= %v): %d (%.1f%% of shutdown events)\n",
			threshold, selfs, 100*float64(selfs)/float64(len(durs)))
	}
	b.WriteString("\nfull range (bin = 2500 s):\n")
	b.WriteString(rebootHistogram(durs, 0, 50000, 20).Render(40, func(lo, hi float64) string {
		return fmt.Sprintf("[%5.0f,%5.0f)s", lo, hi)
	}))
	b.WriteString("\nzoom, duration < 500 s (bin = 25 s):\n")
	b.WriteString(rebootHistogram(durs, 0, 500, 20).Render(40, func(lo, hi float64) string {
		return fmt.Sprintf("[%3.0f,%3.0f)s", lo, hi)
	}))
	if med := medianOf(durs, 360); med > 0 {
		fmt.Fprintf(&b, "median self-shutdown duration: %.0f s (paper: ~80 s)\n", med)
	}
	return b.String()
}

// rebootHistogram mirrors Study.RebootHistogram on a raw duration slice.
func rebootHistogram(durs []float64, lo, hi float64, bins int) *sim.Histogram {
	h := sim.NewHistogram(lo, hi, bins)
	for _, v := range durs {
		h.Add(v)
	}
	return h
}

func medianOf(durs []float64, below float64) float64 {
	var xs []float64
	for _, d := range durs {
		if d <= below {
			xs = append(xs, d)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// MTBFFromSnapshot renders the section 6 headline numbers.
func MTBFFromSnapshot(sn *stream.TablesSnapshot) string {
	rep := sn.MTBF
	var b strings.Builder
	b.WriteString("Section 6 — freezes and self-shutdowns\n")
	fmt.Fprintf(&b, "observed phone-hours: %.0f\n", rep.ObservedHours)
	fmt.Fprintf(&b, "freezes: %d        MTBFr: %.0f h (paper: 313 h)\n", rep.Freezes, rep.MTBFrHours)
	fmt.Fprintf(&b, "self-shutdowns: %d  MTBS:  %.0f h (paper: 250 h)\n", rep.SelfShutdowns, rep.MTBSHours)
	fmt.Fprintf(&b, "a failure every %.1f days on average (paper: ~11 days)\n", rep.FailureEveryDays)
	return b.String()
}

// Table2FromSnapshot renders the collected panic events with frequencies
// and meanings.
func Table2FromSnapshot(sn *stream.TablesSnapshot) string {
	out := make([][]string, 0, len(sn.PanicTable))
	for _, r := range sn.PanicTable {
		meaning := r.Meaning
		if len(meaning) > 72 {
			meaning = meaning[:69] + "..."
		}
		out = append(out, []string{r.Key, fmt.Sprintf("%d", r.Count), fmt.Sprintf("%.2f", r.Percent), meaning})
	}
	return Table("Table 2 — collected panic events", []string{"panic", "count", "%", "meaning"}, out)
}

// Figure3FromSnapshot renders the distribution of panic cascade sizes.
func Figure3FromSnapshot(sn *stream.TablesSnapshot) string {
	var b strings.Builder
	b.WriteString(IntHistogram("Figure 3 — distribution of subsequent panics (cascade sizes)", "size", sn.Bursts.SizeCounts, 40))
	fmt.Fprintf(&b, "panics in cascades of >= 2: %.1f%% (paper: ~25%%)\n", 100*sn.Bursts.PanicsInBursts)
	return b.String()
}

// Figure5FromSnapshot renders the panic / high-level-event coalescence.
func Figure5FromSnapshot(sn *stream.TablesSnapshot) string {
	st := sn.Coalescence
	var b strings.Builder
	b.WriteString("Figure 5 — panics and high-level events (window ")
	fmt.Fprintf(&b, "%v)\n", sn.Config.CoalescenceWindow)
	fmt.Fprintf(&b, "panics: %d, related to HL events: %d (%.1f%%, paper: 51%%)\n",
		st.TotalPanics, st.RelatedPanics, st.RelatedPercent)
	fmt.Fprintf(&b, "  -> freezes: %d, -> self-shutdowns: %d, isolated HL events: %d\n",
		st.ToFreeze, st.ToSelfShutdown, st.IsolatedHL)
	fmt.Fprintf(&b, "with ALL shutdown events included: %.1f%% related (paper: 55%%)\n", sn.RelatedPercentAllShutdowns)
	b.WriteString("\nper category (Figure 5b):\n")
	keys := make([]string, 0, len(st.ByCategory))
	for k := range st.ByCategory {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if st.ByCategory[keys[i]].Total != st.ByCategory[keys[j]].Total {
			return st.ByCategory[keys[i]].Total > st.ByCategory[keys[j]].Total
		}
		return keys[i] < keys[j]
	})
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		rc := st.ByCategory[k]
		rows = append(rows, []string{
			k,
			fmt.Sprintf("%d", rc.Total),
			fmt.Sprintf("%d", rc.ToFreeze),
			fmt.Sprintf("%d", rc.ToSelfShutdown),
			fmt.Sprintf("%d", rc.Total-rc.Related),
		})
	}
	b.WriteString(Table("", []string{"panic", "total", "->freeze", "->self-shutdown", "isolated"}, rows))
	return b.String()
}

// Figure4Sweep renders the coalescence-window justification.
func Figure4Sweep(s *analysis.Study, windows []time.Duration) string {
	points := s.WindowSweep(windows)
	var b strings.Builder
	b.WriteString("Figure 4 — coalescence window sweep (why 5 minutes)\n")
	max := 0
	for _, p := range points {
		if p.Related > max {
			max = p.Related
		}
	}
	for _, p := range points {
		fmt.Fprintf(&b, "window %-8v related %5d %s\n", p.Window, p.Related, Bar(float64(p.Related), float64(max), 40))
	}
	return b.String()
}

// Table3FromSnapshot renders the panic-activity relationship.
func Table3FromSnapshot(sn *stream.TablesSnapshot) string {
	cats := []string{"E32USER-CBase", "KERN-EXEC", "MSGS Client", "Phone.app", "USER", "ViewSrv"}
	var out [][]string
	for _, r := range sn.Activity {
		row := []string{r.Activity}
		for _, c := range cats {
			row = append(row, Pct(r.ByCategory[c]))
		}
		row = append(row, fmt.Sprintf("%.1f", r.Total))
		out = append(out, row)
	}
	headers := append([]string{"activity"}, append(cats, "total")...)
	var b strings.Builder
	b.WriteString(Table("Table 3 — panic-activity relationship (% of HL-related panics)", headers, out))
	fmt.Fprintf(&b, "panics during real-time activity (call/message): %.1f%% (paper: ~45%%)\n", sn.RealTimeActivitySharePct)
	return b.String()
}

// Figure6FromSnapshot renders the running-applications-at-panic
// distribution.
func Figure6FromSnapshot(sn *stream.TablesSnapshot) string {
	return IntHistogram("Figure 6 — number of running applications at panic time", "apps", sn.RunningApps, 40)
}

// Table4FromSnapshot renders the panic / running-application relationship.
func Table4FromSnapshot(sn *stream.TablesSnapshot) string {
	rows, top := sn.AppTable, sn.TopApps
	if len(top) > 5 {
		top = top[:5]
	}
	appSet := make(map[string]bool)
	for _, r := range rows {
		for app := range r.ByApp {
			appSet[app] = true
		}
	}
	apps := make([]string, 0, len(appSet))
	for app := range appSet {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var out [][]string
	for _, r := range rows {
		row := []string{r.Outcome, r.Category}
		for _, app := range apps {
			row = append(row, Pct(r.ByApp[app]))
		}
		out = append(out, row)
	}
	headers := append([]string{"HL event", "panic"}, apps...)
	var b strings.Builder
	b.WriteString(Table("Table 4 — panic-running applications relationship (% of all panics)", headers, out))
	b.WriteString("applications most often running at panic time:\n")
	for _, t := range top {
		fmt.Fprintf(&b, "  %-12s %5.1f%%\n", t.App, t.Percent)
	}
	return b.String()
}
