package symfail

import (
	"testing"

	"symfail/internal/collect"
	"symfail/internal/core"
)

// killChaosConfig is chaosConfig with the server's own survival on the
// line: on top of the ~20% composite network fault rate and the flash
// faults, the supervisor kills the collection server every handful of
// requests at a drawn crashpoint, and the tiny compaction bound makes the
// kills land on the snapshot path too. Workers:4 keeps the sharded engine
// in the mix — `make chaos-kill` runs this under -race.
func killChaosConfig(seed uint64) FieldStudyConfig {
	cfg := chaosConfig(seed)
	cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: 6, KillEveryMax: 18}
	cfg.Adversity.ServerCompactWAL = 64 << 10
	return cfg
}

// TestKillAnythingNoAcknowledgedDataLoss is the tentpole invariant with
// everything failing at once — network, flash and the collection server
// itself: every record any server incarnation ever acknowledged is present
// exactly once in the final merged dataset.
func TestKillAnythingNoAcknowledgedDataLoss(t *testing.T) {
	fs, err := RunFieldStudy(killChaosConfig(20070627))
	if err != nil {
		t.Fatal(err)
	}
	sup := fs.Collector
	defer sup.Close()

	if err := sup.Err(); err != nil {
		t.Fatalf("supervisor failed to restart the server: %v", err)
	}
	// The run must actually have been adversarial on every axis.
	if sup.Crashes() == 0 {
		t.Fatal("no server crashes injected — the kill-anything harness is not killing anything")
	}
	if sup.Restarts() != sup.Crashes() {
		t.Errorf("crashes %d != restarts %d: an incarnation never came back",
			sup.Crashes(), sup.Restarts())
	}
	var torn uint64
	for _, d := range fs.Fleet.Devices {
		torn += d.FS().TornWrites()
	}
	if torn == 0 {
		t.Error("no torn flash writes injected")
	}
	var retransmitted int64
	for _, u := range fs.Uploaders {
		retransmitted += u.BytesRetransmitted()
	}
	if retransmitted == 0 {
		t.Error("no bytes were ever retransmitted — the crash/resume path was not exercised")
	}

	for _, d := range fs.Fleet.Devices {
		id := d.ID()
		counts := make(map[string]int)
		for _, r := range fs.Dataset.Records(id) {
			counts[string(core.EncodeRecord(r))]++
		}
		acked := sup.AckedKeys(id)
		if len(acked) == 0 {
			t.Errorf("%s: no record was ever acknowledged", id)
		}
		missing, duplicated := 0, 0
		for _, key := range acked {
			switch counts[key] {
			case 1:
			case 0:
				missing++
			default:
				duplicated++
			}
		}
		if missing > 0 || duplicated > 0 {
			t.Errorf("%s: of %d acknowledged records, %d missing and %d duplicated after %d server crashes",
				id, len(acked), missing, duplicated, sup.Crashes())
		}
	}

	// Recovery may only ever surface well-formed records.
	for id, recs := range fs.Dataset.AllRecords() {
		for _, r := range recs {
			if r.Kind != core.KindBoot && r.Kind != core.KindPanic {
				t.Errorf("%s: unknown record kind %q surfaced from WAL recovery: %+v", id, r.Kind, r)
			}
		}
	}
}

// TestKillAnythingHeadlineWithinBands: the paper's headline measurements
// must survive the server being killed out from under the study — same
// bands as the network/flash-only chaos harness.
func TestKillAnythingHeadlineWithinBands(t *testing.T) {
	fs, err := RunFieldStudy(killChaosConfig(20070629))
	if err != nil {
		t.Fatal(err)
	}
	sup := fs.Collector
	defer sup.Close()
	if sup.Crashes() == 0 {
		t.Fatal("no server crashes injected")
	}

	rep := ValidateDetection(fs)
	if rep.TruthPanics == 0 || rep.TruthFreezes == 0 {
		t.Fatalf("degenerate kill-chaos run: %+v", rep)
	}
	if rep.PanicCaptureRate < 0.85 {
		t.Errorf("panic capture rate %.3f under server crashes, want >= 0.85 (%d/%d)",
			rep.PanicCaptureRate, rep.LoggedPanics, rep.TruthPanics)
	}
	if rep.FreezeRecall < 0.80 {
		t.Errorf("freeze recall %.3f under server crashes, want >= 0.80 (%d/%d)",
			rep.FreezeRecall, rep.LoggedFreezes, rep.TruthFreezes)
	}
	if rep.SelfShutdownRatio < 0.6 || rep.SelfShutdownRatio > 1.6 {
		t.Errorf("self-shutdown ratio %.3f, want within [0.6, 1.6]", rep.SelfShutdownRatio)
	}
	if got := len(fs.Dataset.Devices()); got != len(fs.Fleet.Devices) {
		t.Errorf("dataset holds %d devices, fleet has %d — a phone's log never survived the crashes",
			got, len(fs.Fleet.Devices))
	}
}
