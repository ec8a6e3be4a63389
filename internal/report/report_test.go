package report

import (
	"strings"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/core"
	"symfail/internal/forum"
	"symfail/internal/sim"
)

func TestTableAlignment(t *testing.T) {
	out := Table("Title", []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "long-header") || !strings.Contains(lines[2], "---") {
		t.Errorf("header/separator wrong:\n%s", out)
	}
	// All data lines equal length (alignment).
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	out := Table("", []string{"h"}, [][]string{{"v"}})
	if strings.HasPrefix(out, "\n") {
		t.Errorf("leading newline with empty title: %q", out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0) != "." {
		t.Errorf("Pct(0) = %q", Pct(0))
	}
	if Pct(12.345) != "12.35" {
		t.Errorf("Pct = %q", Pct(12.345))
	}
	if F1(3.14) != "3.1" {
		t.Errorf("F1 = %q", F1(3.14))
	}
}

func TestBar(t *testing.T) {
	if Bar(0, 10, 40) != "" || Bar(5, 0, 40) != "" {
		t.Error("degenerate bars should be empty")
	}
	if got := Bar(10, 10, 40); len(got) != 40 {
		t.Errorf("full bar length = %d", len(got))
	}
	if got := Bar(0.001, 10, 40); len(got) != 1 {
		t.Errorf("tiny bar length = %d", len(got))
	}
	if got := Bar(20, 10, 40); len(got) != 40 {
		t.Errorf("overflow bar length = %d", len(got))
	}
}

func TestIntHistogram(t *testing.T) {
	out := IntHistogram("T", "n", map[int]int{1: 10, 3: 5, 2: 0}, 20)
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "n=1") {
		t.Errorf("histogram output:\n%s", out)
	}
	// Keys sorted.
	i1 := strings.Index(out, "n=1")
	i3 := strings.Index(out, "n=3")
	if i1 < 0 || i3 < 0 || i1 > i3 {
		t.Errorf("keys not sorted:\n%s", out)
	}
}

// smallStudy builds a study from a synthetic dataset with one of everything.
func smallStudy() *analysis.Study {
	ds := map[string][]core.Record{
		"p1": {
			{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot},
			{Kind: core.KindPanic, Time: int64(sim.Epoch.Add(time.Hour)), Category: "KERN-EXEC", PType: 3,
				Apps: []string{"Messages"}, Activity: "voice-call"},
			{Kind: core.KindBoot, Time: int64(sim.Epoch.Add(time.Hour + 4*time.Minute)), Boot: 2,
				Detected: core.DetectedFreeze, PrevBeat: core.BeatAlive,
				PrevTime: int64(sim.Epoch.Add(time.Hour + time.Minute)), OffSeconds: 180},
			{Kind: core.KindBoot, Time: int64(sim.Epoch.Add(9*time.Hour + 85*time.Second)), Boot: 3,
				Detected: core.DetectedShutdown, PrevBeat: core.BeatReboot,
				PrevTime: int64(sim.Epoch.Add(9 * time.Hour)), OffSeconds: 85},
			{Kind: core.KindBoot, Time: int64(sim.Epoch.Add(40 * time.Hour)), Boot: 4,
				Detected: core.DetectedShutdown, PrevBeat: core.BeatReboot,
				PrevTime: int64(sim.Epoch.Add(32 * time.Hour)), OffSeconds: 28800},
		},
	}
	return analysis.New(ds, analysis.Options{})
}

func TestPaperRenderersProduceOutput(t *testing.T) {
	s := smallStudy()
	sn := s.Snapshot()
	cases := map[string]string{
		"Figure 2":  Figure2FromSnapshot(sn),
		"Section 6": MTBFFromSnapshot(sn),
		"Table 2":   Table2FromSnapshot(sn),
		"Figure 3":  Figure3FromSnapshot(sn),
		"Figure 5":  Figure5FromSnapshot(sn),
		"Table 3":   Table3FromSnapshot(sn),
		"Figure 6":  Figure6FromSnapshot(sn),
		"Table 4":   Table4FromSnapshot(sn),
	}
	for name, out := range cases {
		if !strings.Contains(out, strings.Split(name, " ")[0]) {
			t.Errorf("%s renderer missing heading:\n%s", name, out)
		}
		if len(out) < 40 {
			t.Errorf("%s output suspiciously short: %q", name, out)
		}
	}
	sweep := Figure4Sweep(s, []time.Duration{time.Second, 5 * time.Minute, time.Hour})
	if !strings.Contains(sweep, "window") {
		t.Errorf("sweep output:\n%s", sweep)
	}
}

func TestFigure2ContentDetails(t *testing.T) {
	out := Figure2FromSnapshot(smallStudy().Snapshot())
	if !strings.Contains(out, "shutdown events: 2") {
		t.Errorf("missing event count:\n%s", out)
	}
	if !strings.Contains(out, "self-shutdowns") {
		t.Errorf("missing self-shutdown line:\n%s", out)
	}
	if !strings.Contains(out, "median self-shutdown duration: 85 s") {
		t.Errorf("missing median line:\n%s", out)
	}
}

func TestTable2IncludesMeanings(t *testing.T) {
	out := Table2FromSnapshot(smallStudy().Snapshot())
	if !strings.Contains(out, "KERN-EXEC 3") || !strings.Contains(out, "unhandled exception") {
		t.Errorf("table 2 content:\n%s", out)
	}
}

func TestForumRenderers(t *testing.T) {
	rep := forum.Analyze(forum.Generate(forum.GeneratorConfig{Seed: 1, FailureReports: 200, NoisePosts: 100}))
	t1 := Table1(rep)
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "freeze") {
		t.Errorf("table 1:\n%s", t1)
	}
	s41 := Section41(rep)
	if !strings.Contains(s41, "failure types by frequency") || !strings.Contains(s41, "severity") {
		t.Errorf("section 4.1:\n%s", s41)
	}
}

func TestExtraRenderers(t *testing.T) {
	s := smallStudy()
	if out := Extras(s); !strings.Contains(out, "freeze outages") || !strings.Contains(out, "MTBF h") {
		t.Errorf("extras:\n%s", out)
	}
	if out := Predictor(s); !strings.Contains(out, "precision") || !strings.Contains(out, "horizon sweep") {
		t.Errorf("predictor:\n%s", out)
	}
	if out := ExpFit(s); !strings.Contains(out, "inter-failure") {
		t.Errorf("expfit:\n%s", out)
	}
	// A study with no failures at all renders the degenerate fit line.
	empty := analysis.New(nil, analysis.Options{})
	if out := ExpFit(empty); !strings.Contains(out, "no inter-failure intervals") {
		t.Errorf("empty expfit:\n%s", out)
	}
	ds := map[string][]core.Record{
		"p1": {{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot, OSVersion: "8.0"}},
	}
	vs := analysis.New(ds, analysis.Options{})
	if out := VersionTable(vs, ds); !strings.Contains(out, "8.0") {
		t.Errorf("version table:\n%s", out)
	}
	ur := map[string][]core.Record{
		"p1": {{Kind: core.KindUserReport, Time: 7200 * 1e9, PrevTime: 3600 * 1e9, Detected: "wrong ringtone played"}},
	}
	if out := UserReportSummary(ur, 4); !strings.Contains(out, "25% coverage") {
		t.Errorf("user report summary:\n%s", out)
	}
	if out := UserReportSummary(nil, 0); !strings.Contains(out, "reports collected: 0") {
		t.Errorf("empty user report summary:\n%s", out)
	}
}

func TestSeasonalityChart(t *testing.T) {
	out := SeasonalityChart(smallStudy())
	if !strings.Contains(out, "seasonality") || !strings.Contains(out, "09:00") {
		t.Errorf("seasonality:\n%s", out)
	}
	if !strings.Contains(out, "weekday failures/day") {
		t.Errorf("missing rates line:\n%s", out)
	}
}
