package analysis

import (
	"testing"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// rec builders for synthetic datasets.

func bootRec(at time.Duration, boot int, detected core.Detection, prev core.BeatKind, prevAt time.Duration) core.Record {
	return core.Record{
		Kind:       core.KindBoot,
		Time:       int64(sim.Epoch.Add(at)),
		Boot:       boot,
		Detected:   detected,
		PrevBeat:   prev,
		PrevTime:   int64(sim.Epoch.Add(prevAt)),
		OffSeconds: (at - prevAt).Seconds(),
	}
}

func panicRec(at time.Duration, cat string, typ int, activity string, apps ...string) core.Record {
	return core.Record{
		Kind:     core.KindPanic,
		Time:     int64(sim.Epoch.Add(at)),
		Category: cat,
		PType:    typ,
		Apps:     apps,
		Activity: activity,
	}
}

// syntheticDataset builds one device with a deterministic little history:
//
//	t=0h      first boot
//	t=1h      KERN-EXEC 3 panic (Messages running, voice-call) ─┐ 2 min gap
//	t=1h2m    USER 11 panic (burst follower)                    ─┘
//	t=1h3m    freeze (last ALIVE at 1h3m), battery pull, boot at 1h30m
//	t=5h      EIKON-LISTBOX 5 panic, isolated, idle
//	t=9h      self-shutdown: REBOOT beat at 9h, boot at 9h+90s
//	t=20h     user shutdown: REBOOT at 20h, boot at 28h (night)
//	t=40h     low-battery shutdown, boot at 41h
func syntheticDataset() map[string][]core.Record {
	return map[string][]core.Record{
		"p1": {
			{Kind: core.KindBoot, Time: int64(sim.Epoch), Boot: 1, Detected: core.DetectedFirstBoot},
			panicRec(time.Hour, "KERN-EXEC", 3, "voice-call", "Log", "Messages", "Telephone"),
			panicRec(time.Hour+2*time.Minute, "USER", 11, "voice-call", "Telephone"),
			bootRec(90*time.Minute, 2, core.DetectedFreeze, core.BeatAlive, time.Hour+3*time.Minute),
			panicRec(5*time.Hour, "EIKON-LISTBOX", 5, "unspecified", "Contacts"),
			bootRec(9*time.Hour+90*time.Second, 3, core.DetectedShutdown, core.BeatReboot, 9*time.Hour),
			bootRec(28*time.Hour, 4, core.DetectedShutdown, core.BeatReboot, 20*time.Hour),
			bootRec(41*time.Hour, 5, core.DetectedLowBattery, core.BeatLowBat, 40*time.Hour),
		},
	}
}

func newSyntheticStudy(t *testing.T) *Study {
	t.Helper()
	return New(syntheticDataset(), Options{})
}

func TestHLEventClassification(t *testing.T) {
	s := newSyntheticStudy(t)
	freezes := s.HLEvents(HLFreeze)
	if len(freezes) != 1 {
		t.Fatalf("freezes = %d", len(freezes))
	}
	if freezes[0].Time != sim.Epoch.Add(time.Hour+3*time.Minute) {
		t.Errorf("freeze time = %v (should be the last ALIVE beat)", freezes[0].Time)
	}
	selfs := s.HLEvents(HLSelfShutdown)
	if len(selfs) != 1 || selfs[0].OffSeconds != 90 {
		t.Fatalf("self-shutdowns = %+v", selfs)
	}
	users := s.HLEvents(HLUserShutdown)
	if len(users) != 1 || users[0].OffSeconds != (8*time.Hour).Seconds() {
		t.Fatalf("user shutdowns = %+v", users)
	}
	if all := s.HLEvents(); len(all) != 3 {
		t.Errorf("all HL events = %d", len(all))
	}
	if s.ExplainedShutdowns() != 1 {
		t.Errorf("explained shutdowns = %d", s.ExplainedShutdowns())
	}
}

func TestRebootDurationsOnlyOrderlyShutdowns(t *testing.T) {
	s := newSyntheticStudy(t)
	durs := s.RebootDurations()
	// The freeze (battery pull) and low-battery boots are not REBOOT
	// events; only the two REBOOT shutdowns count.
	if len(durs) != 2 {
		t.Fatalf("reboot durations = %v", durs)
	}
	h := s.RebootHistogram(0, 40000, 40)
	if h.N() != 2 {
		t.Errorf("histogram N = %d", h.N())
	}
}

func TestBurstGrouping(t *testing.T) {
	s := newSyntheticStudy(t)
	st := s.Bursts()
	if st.TotalPanics != 3 {
		t.Fatalf("total panics = %d", st.TotalPanics)
	}
	if st.TotalBursts != 2 {
		t.Fatalf("total bursts = %d (sizes %v)", st.TotalBursts, st.SizeCounts)
	}
	if st.SizeCounts[2] != 1 || st.SizeCounts[1] != 1 {
		t.Errorf("size counts = %v", st.SizeCounts)
	}
	want := 2.0 / 3.0
	if st.PanicsInBursts < want-1e-9 || st.PanicsInBursts > want+1e-9 {
		t.Errorf("panics in bursts = %v, want %v", st.PanicsInBursts, want)
	}
}

func TestCoalescence(t *testing.T) {
	s := newSyntheticStudy(t)
	st := s.Coalesce()
	if st.TotalPanics != 3 {
		t.Fatalf("total = %d", st.TotalPanics)
	}
	// The two burst panics relate to the freeze at 1h3m (1-3 minutes
	// away); the listbox panic is isolated.
	if st.RelatedPanics != 2 || st.ToFreeze != 2 || st.ToSelfShutdown != 0 {
		t.Errorf("coalescence = %+v", st)
	}
	if rc := st.ByCategory["KERN-EXEC 3"]; rc.Related != 1 || rc.ToFreeze != 1 {
		t.Errorf("KERN-EXEC 3 relation = %+v", rc)
	}
	if rc := st.ByCategory["EIKON-LISTBOX 5"]; rc.Related != 0 || rc.Total != 1 {
		t.Errorf("EIKON-LISTBOX 5 relation = %+v", rc)
	}
	// One HL event (the self-shutdown at 9h) has no panic nearby.
	if st.IsolatedHL != 1 {
		t.Errorf("isolated HL = %d", st.IsolatedHL)
	}
}

func TestCoalescenceWindowMatters(t *testing.T) {
	s := New(syntheticDataset(), Options{CoalescenceWindow: time.Second})
	st := s.Coalesce()
	if st.RelatedPanics != 0 {
		t.Errorf("with a 1 s window nothing should coalesce, got %d", st.RelatedPanics)
	}
}

func TestWindowSweepMonotone(t *testing.T) {
	s := newSyntheticStudy(t)
	points := s.WindowSweep([]time.Duration{
		time.Second, time.Minute, 5 * time.Minute, time.Hour, 10 * time.Hour,
	})
	prev := -1
	for _, pt := range points {
		if pt.Related < prev {
			t.Fatalf("window sweep not monotone: %+v", points)
		}
		prev = pt.Related
	}
	if points[0].Related != 0 {
		t.Errorf("1 s window relates %d", points[0].Related)
	}
	if points[len(points)-1].Related != 3 {
		t.Errorf("10 h window relates %d, want all 3", points[len(points)-1].Related)
	}
	// The sweep must leave the standard coalescence intact.
	if st := s.Coalesce(); st.RelatedPanics != 2 {
		t.Errorf("sweep corrupted state: related = %d", st.RelatedPanics)
	}
}

func TestRelatedPercentWithAllShutdowns(t *testing.T) {
	// Add a panic right before the user shutdown at 20h: it is isolated
	// under the standard rule but related when user shutdowns count.
	ds := syntheticDataset()
	ds["p1"] = append(ds["p1"], panicRec(20*time.Hour-time.Minute, "KERN-EXEC", 0, "unspecified"))
	s := New(ds, Options{})
	std := s.Coalesce().RelatedPercent
	all := s.Snapshot().RelatedPercentAllShutdowns
	if all <= std {
		t.Errorf("all-shutdown related %% (%v) should exceed standard (%v)", all, std)
	}
	// The Figure 4 sweep follows the standard rule: the user shutdown
	// relates nothing at any window.
	sweep := s.WindowSweep([]time.Duration{s.Options().CoalescenceWindow})
	if got, want := sweep[0].Related, s.Coalesce().RelatedPanics; got != want {
		t.Errorf("sweep at the configured window relates %d panics, coalescence %d", got, want)
	}
}

func TestPanicTable(t *testing.T) {
	s := newSyntheticStudy(t)
	rows := s.PanicTable()
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	var totalPct float64
	for _, r := range rows {
		totalPct += r.Percent
		if r.Meaning == "" {
			t.Errorf("row %s has no meaning", r.Key)
		}
	}
	if totalPct < 99.9 || totalPct > 100.1 {
		t.Errorf("percent total = %v", totalPct)
	}
	if s.CategoryShare("KERN-EXEC") < 33 || s.CategoryShare("KERN-EXEC") > 34 {
		t.Errorf("KERN-EXEC share = %v", s.CategoryShare("KERN-EXEC"))
	}
	if s.CategoryShare("NOPE") != 0 {
		t.Error("unknown category share should be 0")
	}
}

func TestActivityTable(t *testing.T) {
	s := newSyntheticStudy(t)
	rows := s.Snapshot().Activity
	// Only related panics count: both are voice-call.
	if len(rows) != 1 || rows[0].Activity != "voice-call" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Total < 99.9 || rows[0].Total > 100.1 {
		t.Errorf("row total = %v", rows[0].Total)
	}
	if s.RealTimeActivityShare() != 100 {
		t.Errorf("real-time share = %v", s.RealTimeActivityShare())
	}
}

func TestRunningAppsHistogram(t *testing.T) {
	s := newSyntheticStudy(t)
	h := s.Snapshot().RunningApps
	if h[3] != 1 || h[1] != 2 {
		t.Errorf("histogram = %v", h)
	}
}

func TestAppPanicTable(t *testing.T) {
	s := newSyntheticStudy(t)
	rows := s.Snapshot().AppTable
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var foundFreezeKE3 bool
	for _, r := range rows {
		if r.Outcome == "freeze" && r.Category == "KERN-EXEC" {
			foundFreezeKE3 = true
			if r.ByApp["Messages"] <= 0 {
				t.Errorf("Messages share missing: %+v", r)
			}
		}
		if r.Outcome == "none" && r.Category == "EIKON-LISTBOX" {
			if r.ByApp["Contacts"] <= 0 {
				t.Errorf("Contacts share missing: %+v", r)
			}
		}
	}
	if !foundFreezeKE3 {
		t.Errorf("no freeze/KERN-EXEC row: %+v", rows)
	}
	tops := s.Snapshot().TopApps
	if len(tops) < 2 || tops[0].App != "Telephone" {
		t.Errorf("top apps = %+v", tops)
	}
}

func TestMTBFReport(t *testing.T) {
	s := newSyntheticStudy(t)
	rep := s.MTBF()
	if rep.Freezes != 1 || rep.SelfShutdowns != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ObservedHours <= 0 {
		t.Fatalf("observed hours = %v", rep.ObservedHours)
	}
	// Uptime: sessions 0→1h03m, 1h30m→9h, 9h01m30s→20h, 28h→40h, 41h→41h.
	want := 1.05 + 7.5 + 10.975 + 12.0
	if rep.ObservedHours < want-0.2 || rep.ObservedHours > want+0.2 {
		t.Errorf("observed hours = %v, want ~%v", rep.ObservedHours, want)
	}
	if rep.MTBFrHours != rep.ObservedHours || rep.MTBSHours != rep.ObservedHours {
		t.Errorf("MTBFr/MTBS = %v/%v", rep.MTBFrHours, rep.MTBSHours)
	}
	if rep.MTBFHours != rep.ObservedHours/2 {
		t.Errorf("MTBF = %v", rep.MTBFHours)
	}
	if rep.FailureEveryDays <= 0 {
		t.Errorf("FailureEveryDays = %v", rep.FailureEveryDays)
	}
}

func TestEmptyDataset(t *testing.T) {
	s := New(nil, Options{})
	if len(s.Panics()) != 0 || len(s.HLEvents()) != 0 {
		t.Error("empty dataset produced events")
	}
	rep := s.MTBF()
	if rep.MTBFrHours != 0 || rep.FailureEveryDays != 0 {
		t.Errorf("empty MTBF = %+v", rep)
	}
	if st := s.Coalesce(); st.RelatedPercent != 0 {
		t.Errorf("empty coalescence = %+v", st)
	}
	if s.RealTimeActivityShare() != 0 {
		t.Error("empty real-time share nonzero")
	}
	if rows := s.Snapshot().AppTable; rows != nil {
		t.Errorf("empty app table = %v", rows)
	}
}

func TestRecordsOutOfOrderAreSorted(t *testing.T) {
	ds := syntheticDataset()
	// Reverse the records; ingest must sort.
	recs := ds["p1"]
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	s := New(ds, Options{})
	if len(s.HLEvents(HLFreeze)) != 1 || len(s.Panics()) != 3 {
		t.Error("out-of-order ingest broke derivation")
	}
	if st := s.Coalesce(); st.RelatedPanics != 2 {
		t.Errorf("related = %d", st.RelatedPanics)
	}
}

func TestThresholdSweepChangesClassification(t *testing.T) {
	ds := syntheticDataset()
	// With a 10 h threshold the 8 h night shutdown is (mis)classified as a
	// self-shutdown.
	s := New(ds, Options{SelfShutdownThreshold: 10 * time.Hour})
	if got := len(s.HLEvents(HLSelfShutdown)); got != 2 {
		t.Errorf("self-shutdowns at huge threshold = %d, want 2", got)
	}
	s = New(ds, Options{SelfShutdownThreshold: time.Second})
	if got := len(s.HLEvents(HLSelfShutdown)); got != 0 {
		t.Errorf("self-shutdowns at tiny threshold = %d, want 0", got)
	}
}

func TestDevicesAccessor(t *testing.T) {
	ds := syntheticDataset()
	ds["p0"] = []core.Record{{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot}}
	s := New(ds, Options{})
	devs := s.Devices()
	if len(devs) != 2 || devs[0] != "p0" || devs[1] != "p1" {
		t.Errorf("devices = %v", devs)
	}
	if s.Options().CoalescenceWindow != 5*time.Minute {
		t.Errorf("options = %+v", s.Options())
	}
}
