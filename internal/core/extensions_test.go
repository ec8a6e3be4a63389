package core_test

import (
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

func TestUserReporterCapturesSomeOutputFailures(t *testing.T) {
	eng := sim.NewEngine()
	cfg := phone.DefaultConfig(21)
	cfg.PanicOpportunityPerHour = 0
	cfg.SpontaneousFreezePerHour = 0
	cfg.SpontaneousShutdownPerHour = 0
	cfg.OutputFailurePerHour = 1.0 / 10 // frequent, for test statistics
	d := phone.NewDevice("ur-test", eng, cfg)
	core.Install(d, core.Config{})
	u := core.InstallUserReporter(d, core.UserReporterConfig{})
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(30 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Finalize()

	truth := d.Oracle().Count(phone.TruthOutputFailure)
	if truth < 20 {
		t.Fatalf("too few ground-truth output failures: %d", truth)
	}
	reports := u.Reports()
	if len(reports) == 0 {
		t.Fatal("no user reports at all")
	}
	cov := u.ReportingCoverage()
	// The channel must be lossy (that is the point), but not useless:
	// defaults are notice 0.8 x report 0.45 ~ 36%, minus phone-off losses.
	if cov <= 0.10 || cov >= 0.60 {
		t.Errorf("reporting coverage = %.2f, want lossy-but-useful (~0.3)", cov)
	}
	if u.Noticed() < len(reports) {
		t.Errorf("noticed (%d) < reported (%d)", u.Noticed(), len(reports))
	}
	for _, r := range reports {
		if r.Kind != core.KindUserReport {
			t.Fatalf("wrong kind %q", r.Kind)
		}
		if r.Time < r.PrevTime {
			t.Errorf("report at %d precedes its failure at %d", r.Time, r.PrevTime)
		}
		if r.Detected == "" {
			t.Error("report lacks a detail")
		}
	}
}

func TestUserReporterDoesNotPerturbStudy(t *testing.T) {
	run := func(withReporter bool) int {
		eng := sim.NewEngine()
		d := phone.NewDevice("fixed-id", eng, phone.DefaultConfig(33))
		core.Install(d, core.Config{})
		if withReporter {
			core.InstallUserReporter(d, core.UserReporterConfig{})
		}
		d.Enroll(sim.Epoch)
		if err := eng.Run(sim.Epoch.Add(40 * 24 * time.Hour)); err != nil {
			t.Fatal(err)
		}
		d.Finalize()
		return d.Oracle().PanicCount() + d.Oracle().Failures()*1000
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("installing the reporter changed the study: %d vs %d", a, b)
	}
}

func TestDExcCapturesPanicsButNoContext(t *testing.T) {
	eng := sim.NewEngine()
	cfg := phone.DefaultConfig(27)
	d := phone.NewDevice("dexc-test", eng, cfg)
	l := core.Install(d, core.Config{})
	x := core.InstallDExc(d, "")
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(60 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Finalize()

	var fullPanics []core.Record
	for _, r := range l.Records() {
		if r.Kind == core.KindPanic {
			fullPanics = append(fullPanics, r)
		}
	}
	dexc := x.Records()
	if len(dexc) == 0 {
		t.Fatal("D_EXC captured nothing")
	}
	if len(dexc) != len(fullPanics) {
		t.Errorf("D_EXC panics = %d, full logger = %d (both subscribe to RDebug)",
			len(dexc), len(fullPanics))
	}
	for _, r := range dexc {
		if len(r.Apps) != 0 || r.Activity != "" {
			t.Fatalf("D_EXC record has context it cannot have: %+v", r)
		}
	}
}

func TestDExcAnalysisCapabilityGap(t *testing.T) {
	// The quantitative version of the paper's section 3 argument: feed
	// both logs through the same pipeline and compare what each can
	// answer.
	eng := sim.NewEngine()
	d := phone.NewDevice("gap-test", eng, phone.DefaultConfig(31))
	l := core.Install(d, core.Config{})
	x := core.InstallDExc(d, "")
	d.Enroll(sim.Epoch)
	// Half a year so that panic-induced failures are statistically certain.
	if err := eng.Run(sim.Epoch.Add(180 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Finalize()

	full := analysis.New(map[string][]core.Record{"p": l.Records()}, analysis.Options{})
	base := analysis.New(map[string][]core.Record{"p": x.Records()}, analysis.Options{})

	// Both reproduce Table 2 (same panic stream).
	if len(full.PanicTable()) == 0 || len(base.PanicTable()) == 0 {
		t.Fatal("panic tables empty")
	}
	if len(full.Panics()) != len(base.Panics()) {
		t.Errorf("panic counts differ: %d vs %d", len(full.Panics()), len(base.Panics()))
	}
	// Only the full logger can relate panics to failures, activities and
	// applications.
	if full.Coalesce().RelatedPanics == 0 {
		t.Error("full logger found no panic/HL relations (unexpected for 90 days)")
	}
	if got := base.Coalesce().RelatedPanics; got != 0 {
		t.Errorf("D_EXC somehow related %d panics to HL events", got)
	}
	if len(base.HLEvents()) != 0 {
		t.Error("D_EXC reconstructed HL events without a heartbeat")
	}
	if rows := base.Snapshot().Activity; len(rows) != 0 {
		t.Errorf("D_EXC produced an activity table: %v", rows)
	}
	if hist := base.Snapshot().RunningApps; hist[0] != len(base.Panics()) {
		t.Errorf("D_EXC running-apps histogram should be all-zeros bucket: %v", hist)
	}
}
