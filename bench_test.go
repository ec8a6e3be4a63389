package symfail

// The benchmark harness regenerates every table and figure of the paper:
//
//	BenchmarkTable1ForumFailureRecovery   Table 1
//	BenchmarkSection41Marginals           section 4.1 marginals
//	BenchmarkFigure2RebootDurations       Figure 2
//	BenchmarkMTBF                         section 6 MTBFr / MTBS headline
//	BenchmarkTable2PanicDistribution      Table 2
//	BenchmarkFigure3PanicBursts           Figure 3
//	BenchmarkFigure4WindowSweep           Figure 4 (coalescence window)
//	BenchmarkFigure5Coalescence           Figure 5
//	BenchmarkTable3PanicActivity          Table 3
//	BenchmarkFigure6RunningApps           Figure 6
//	BenchmarkTable4PanicApps              Table 4
//
// plus the end-to-end simulation bench and the ablation sweeps DESIGN.md
// calls out. Paper-shape metrics are attached to each bench through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction summary (see EXPERIMENTS.md for the paper-vs-measured
// comparison at full scale).

import (
	"sync"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/forum"
	"symfail/internal/phone"
	"symfail/internal/report"
)

// benchDataset runs one reduced field study (12 phones, 6 months) and
// caches the collected records: the table/figure benches re-run the
// analysis that regenerates each artefact, not the simulation.
var benchDataset = sync.OnceValue(func() map[string][]core.Record {
	fs, err := RunFieldStudy(FieldStudyConfig{
		Seed:       2007,
		Phones:     12,
		Duration:   6 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth,
	})
	if err != nil {
		panic(err)
	}
	return fs.Dataset.AllRecords()
})

var benchCorpus = sync.OnceValue(func() []forum.Post {
	return forum.Generate(forum.DefaultGeneratorConfig(2007))
})

func benchStudy(b *testing.B) *analysis.Study {
	b.Helper()
	ds := benchDataset()
	b.ResetTimer()
	return analysis.New(ds, analysis.Options{})
}

// Table 1 — failure type x recovery action from the forum corpus.
func BenchmarkTable1ForumFailureRecovery(b *testing.B) {
	posts := benchCorpus()
	var rep *forum.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = forum.Analyze(posts)
		_ = report.Table1(rep)
	}
	b.ReportMetric(rep.JointPercent[forum.Freeze][forum.RecBattery], "freeze-battery-pct")
	b.ReportMetric(rep.JointPercent[forum.OutputFail][forum.RecReboot], "output-reboot-pct")
}

// Section 4.1 — marginals, severity and activity correlation.
func BenchmarkSection41Marginals(b *testing.B) {
	posts := benchCorpus()
	var rep *forum.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = forum.Analyze(posts)
		_ = report.Section41(rep)
	}
	b.ReportMetric(rep.TypePercent[forum.OutputFail], "output-failure-pct")
	b.ReportMetric(rep.TypePercent[forum.Freeze], "freeze-pct")
	b.ReportMetric(100*rep.SmartShare, "smartphone-share-pct")
}

// Figure 2 — reboot-duration distribution and self-shutdown identification.
func BenchmarkFigure2RebootDurations(b *testing.B) {
	ds := benchDataset()
	var s *analysis.Study
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.New(ds, analysis.Options{})
		_ = report.Figure2(s)
	}
	durs := s.RebootDurations()
	selfs := len(s.HLEvents(analysis.HLSelfShutdown))
	if len(durs) > 0 {
		b.ReportMetric(100*float64(selfs)/float64(len(durs)), "selfshutdown-share-pct")
	}
	h := s.RebootHistogram(0, 500, 20)
	if m := h.ModeBin(); m >= 0 {
		_, lo, _ := h.Bin(m)
		b.ReportMetric(lo, "zoom-mode-bin-lo-s")
	}
}

// Section 6 — MTBFr / MTBS headline numbers.
func BenchmarkMTBF(b *testing.B) {
	ds := benchDataset()
	var rep analysis.MTBFReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.New(ds, analysis.Options{})
		rep = s.MTBF()
	}
	b.ReportMetric(rep.MTBFrHours, "MTBFr-h")
	b.ReportMetric(rep.MTBSHours, "MTBS-h")
	b.ReportMetric(rep.FailureEveryDays, "failure-every-days")
}

// Table 2 — panic category/type distribution.
func BenchmarkTable2PanicDistribution(b *testing.B) {
	ds := benchDataset()
	var s *analysis.Study
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.New(ds, analysis.Options{})
		_ = report.Table2(s)
	}
	rows := s.PanicTable()
	if len(rows) > 0 {
		b.ReportMetric(rows[0].Percent, "top-panic-pct")
	}
	b.ReportMetric(s.CategoryShare("E32USER-CBase"), "cbase-share-pct")
}

// Figure 3 — panic cascade sizes.
func BenchmarkFigure3PanicBursts(b *testing.B) {
	ds := benchDataset()
	var st analysis.BurstStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.New(ds, analysis.Options{})
		st = s.Bursts()
		_ = report.Figure3(s)
	}
	b.ReportMetric(100*st.PanicsInBursts, "panics-in-bursts-pct")
}

// Figure 4 — coalescence window sweep.
func BenchmarkFigure4WindowSweep(b *testing.B) {
	ds := benchDataset()
	windows := []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		15 * time.Minute, time.Hour,
	}
	var points []analysis.WindowSweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.New(ds, analysis.Options{})
		points = s.WindowSweep(windows)
	}
	if len(points) >= 4 {
		b.ReportMetric(float64(points[3].Related), "related-at-5min")
		b.ReportMetric(float64(points[len(points)-1].Related), "related-at-1h")
	}
}

// Figure 5 — panic / high-level event coalescence.
func BenchmarkFigure5Coalescence(b *testing.B) {
	ds := benchDataset()
	var st analysis.CoalescenceStats
	var all float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.New(ds, analysis.Options{})
		st = s.Coalesce()
		all = s.RelatedPercentWithAllShutdowns()
		_ = report.Figure5(s)
	}
	b.ReportMetric(st.RelatedPercent, "related-pct")
	b.ReportMetric(all, "related-all-shutdowns-pct")
}

// Table 3 — panic-activity relationship.
func BenchmarkTable3PanicActivity(b *testing.B) {
	ds := benchDataset()
	var s *analysis.Study
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.New(ds, analysis.Options{})
		_ = report.Table3(s)
	}
	b.ReportMetric(s.RealTimeActivityShare(), "realtime-activity-pct")
}

// Figure 6 — running applications at panic time.
func BenchmarkFigure6RunningApps(b *testing.B) {
	ds := benchDataset()
	var hist map[int]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := analysis.New(ds, analysis.Options{})
		hist = s.RunningAppsHistogram(8)
		_ = report.Figure6(s)
	}
	mode, best := 0, 0
	for n, c := range hist {
		if c > best {
			mode, best = n, c
		}
	}
	b.ReportMetric(float64(mode), "mode-apps")
}

// Table 4 — panic / running-application relationship.
func BenchmarkTable4PanicApps(b *testing.B) {
	ds := benchDataset()
	var s *analysis.Study
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = analysis.New(ds, analysis.Options{})
		_ = report.Table4(s)
	}
	tops := s.TopPanicApps(1)
	if len(tops) > 0 {
		b.ReportMetric(tops[0].Percent, "top-app-pct")
	}
}

// End-to-end: the full instrumented simulation (fleet + logger + collect).
func BenchmarkFieldStudySimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := RunFieldStudy(FieldStudyConfig{
			Seed:       uint64(i + 1),
			Phones:     5,
			Duration:   2 * phone.StudyMonth,
			JoinWindow: phone.StudyMonth / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fs.Study.HLEvents()) == 0 {
			b.Fatal("no events")
		}
	}
	b.ReportMetric(float64(5*2), "phone-months/op")
}

// BenchmarkCollectUpload measures the TCP log-transfer path: a whole
// 64 KiB log sent as one CHUNK at offset 0, the study-end write.
func BenchmarkCollectUpload(b *testing.B) {
	ds := collect.NewDataset()
	srv, err := collect.NewServer("127.0.0.1:0", ds)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (collect.NetTransport{}).UploadChunk(srv.Addr(), "bench-phone", 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline: the D_EXC panic-only collector vs the paper's logger. The
// metric of interest is the capability gap: the baseline reproduces Table 2
// (panic counts) but can relate zero panics to failures.
func BenchmarkBaselineDExc(b *testing.B) {
	var fullRelated, baseRelated, panics int
	for i := 0; i < b.N; i++ {
		fs, err := RunFieldStudy(FieldStudyConfig{
			Seed:       13,
			Phones:     6,
			Duration:   3 * phone.StudyMonth,
			JoinWindow: 0,
			WithDExc:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseStudy := analysis.New(fs.BaselineDataset.AllRecords(), analysis.Options{})
		fullRelated = fs.Study.Coalesce().RelatedPanics
		baseRelated = baseStudy.Coalesce().RelatedPanics
		panics = len(baseStudy.Panics())
	}
	b.ReportMetric(float64(panics), "panics-captured")
	b.ReportMetric(float64(fullRelated), "full-logger-related")
	b.ReportMetric(float64(baseRelated), "dexc-related")
}

// Extension: the user-report channel for output failures — its coverage
// and bias, measured against the simulator oracle.
func BenchmarkExtensionUserReports(b *testing.B) {
	var coverage float64
	var reports int
	for i := 0; i < b.N; i++ {
		fs, err := RunFieldStudy(FieldStudyConfig{
			Seed:             17,
			Phones:           6,
			Duration:         3 * phone.StudyMonth,
			JoinWindow:       0,
			WithUserReporter: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		st := analysis.UserReports(fs.Dataset.AllRecords())
		reports = st.Reports
		truth := 0
		for _, d := range fs.Fleet.Devices {
			truth += d.Oracle().Count(phone.TruthOutputFailure)
		}
		if truth > 0 {
			coverage = 100 * float64(st.Reports) / float64(truth)
		}
	}
	b.ReportMetric(float64(reports), "reports")
	b.ReportMetric(coverage, "coverage-pct")
}

// Ablation: heartbeat-period sweep — detection resolution vs flash wear.
func BenchmarkAblationHeartbeatPeriod(b *testing.B) {
	for _, period := range []time.Duration{30 * time.Second, 2 * time.Minute, 5 * time.Minute, 15 * time.Minute} {
		b.Run(period.String(), func(b *testing.B) {
			var writes uint64
			var freezes int
			var meanErr float64
			for i := 0; i < b.N; i++ {
				fs, err := RunFieldStudy(FieldStudyConfig{
					Seed:       7,
					Phones:     3,
					Duration:   phone.StudyMonth,
					JoinWindow: 0,
					Logger:     core.Config{HeartbeatPeriod: period},
				})
				if err != nil {
					b.Fatal(err)
				}
				writes = 0
				for _, d := range fs.Fleet.Devices {
					writes += d.FS().Writes()
				}
				freezes = len(fs.Study.HLEvents(analysis.HLFreeze))
				meanErr = freezeTimestampError(fs)
			}
			b.ReportMetric(float64(writes), "flash-writes")
			b.ReportMetric(float64(freezes), "freezes-detected")
			b.ReportMetric(meanErr, "freeze-ts-err-s")
		})
	}
}

// freezeTimestampError measures the logger's freeze-timestamp accuracy
// against the oracle: the reconstructed freeze time is the LAST heartbeat,
// so the mean error is about half the heartbeat period (the section 5.2
// tuning trade-off, quantified).
func freezeTimestampError(fs *FieldStudy) float64 {
	var sum float64
	var n int
	for di, d := range fs.Fleet.Devices {
		// Ground-truth freeze instants, in order.
		var truth []float64
		for _, e := range d.Oracle().Events {
			if e.Kind == phone.TruthFreeze {
				truth = append(truth, e.Time.Seconds())
			}
		}
		// Logger-reconstructed freeze instants, in order.
		var logged []float64
		for _, r := range fs.Loggers[di].Records() {
			if r.Kind == core.KindBoot && r.Detected == core.DetectedFreeze {
				logged = append(logged, float64(r.PrevTime)/1e9)
			}
		}
		for i := 0; i < len(truth) && i < len(logged); i++ {
			diff := truth[i] - logged[i]
			if diff < 0 {
				diff = -diff
			}
			sum += diff
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Ablation: self-shutdown threshold sweep — why 360 s.
func BenchmarkAblationSelfShutdownThreshold(b *testing.B) {
	ds := benchDataset()
	for _, thr := range []time.Duration{60 * time.Second, 360 * time.Second, 30 * time.Minute, 4 * time.Hour} {
		b.Run(thr.String(), func(b *testing.B) {
			var selfs int
			for i := 0; i < b.N; i++ {
				s := analysis.New(ds, analysis.Options{SelfShutdownThreshold: thr})
				selfs = len(s.HLEvents(analysis.HLSelfShutdown))
			}
			b.ReportMetric(float64(selfs), "self-shutdowns")
		})
	}
}

// Ablation: burst propagation on/off — what isolation between real-time
// and interactive tasks would buy.
func BenchmarkAblationBurstIsolation(b *testing.B) {
	for _, burst := range []struct {
		name string
		p    float64
	}{{"propagation-on", -1}, {"propagation-off", 0}} {
		b.Run(burst.name, func(b *testing.B) {
			var inBursts float64
			var panics int
			for i := 0; i < b.N; i++ {
				fs, err := RunFieldStudy(FieldStudyConfig{
					Seed:       11,
					Phones:     6,
					Duration:   3 * phone.StudyMonth,
					JoinWindow: 0,
					Device: func(seed uint64) phone.Config {
						cfg := phone.DefaultConfig(seed)
						if burst.p >= 0 {
							cfg.BurstProb = burst.p
						}
						return cfg
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				st := fs.Study.Bursts()
				inBursts = 100 * st.PanicsInBursts
				panics = st.TotalPanics
			}
			b.ReportMetric(inBursts, "panics-in-bursts-pct")
			b.ReportMetric(float64(panics), "panics")
		})
	}
}
