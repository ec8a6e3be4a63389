package symfail

import (
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
)

// chaosConfig runs a mid-size fleet under the full adversity menu: torn
// flash writes on every battery pull, bit rot, a flash quota, and a ~20%
// total network-fault rate (refusals, mid-transfer drops, payload
// corruption, lost ACKs) with backoff-and-retry enabled. The fleet runs
// sharded (Workers > 1) so fault injection and parallel execution are
// exercised together — `make chaos` runs this under -race, which is the
// harness the CI uses to prove the sharded adversity path is race-free.
func chaosConfig(seed uint64) FieldStudyConfig {
	return FieldStudyConfig{
		Seed:        seed,
		Phones:      6,
		Workers:     4,
		Duration:    3 * phone.StudyMonth,
		JoinWindow:  phone.StudyMonth / 2,
		UploadEvery: 3 * 24 * time.Hour,
		Servers:     1,
		Adversity: AdversityConfig{
			Flash: phone.FlashFaults{
				TornWriteProb:  0.7,
				BitRotPerWrite: 0.002,
				QuotaBytes:     1 << 20,
			},
			Net: collect.NetFaults{
				RefuseProb:  0.08,
				DropProb:    0.04,
				CorruptProb: 0.04,
				DropAckProb: 0.04,
			},
			RetryBase: 20 * time.Minute,
			RetryMax:  12 * time.Hour,
		},
	}
}

// TestChaosNoAcknowledgedDataLoss is the adversity layer's headline
// invariant: whatever the network and the flash do, every record the
// collection server ever acknowledged is present exactly once in the final
// merged dataset, and recovery never surfaces a corrupt record to the
// analysis.
func TestChaosNoAcknowledgedDataLoss(t *testing.T) {
	fs, err := RunFieldStudy(chaosConfig(20070625))
	if err != nil {
		t.Fatal(err)
	}
	srv := fs.Collector
	defer srv.Close()

	// The run must actually have been adversarial, or the invariant is
	// vacuous.
	var torn, flips uint64
	for _, d := range fs.Fleet.Devices {
		torn += d.FS().TornWrites()
		flips += d.FS().BitFlips()
	}
	if torn == 0 {
		t.Error("no torn writes injected — chaos config is not reaching the flash")
	}
	if flips == 0 {
		t.Error("no bit rot injected")
	}

	// No acknowledged record may be missing from, or duplicated in, the
	// final merged dataset.
	for _, d := range fs.Fleet.Devices {
		id := d.ID()
		counts := make(map[string]int)
		for _, r := range fs.Dataset.Records(id) {
			counts[string(core.EncodeRecord(r))]++
		}
		acked := srv.AckedKeys(id)
		if len(acked) == 0 {
			t.Errorf("%s: server never acknowledged a record", id)
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
			t.Errorf("%s: of %d acknowledged records, %d missing and %d duplicated in the merged dataset",
				id, len(acked), missing, duplicated)
		}
	}

	// Recovery must never surface a corrupt record: everything in the
	// dataset is a well-formed record of a known kind.
	for id, recs := range fs.Dataset.AllRecords() {
		for _, r := range recs {
			switch r.Kind {
			case core.KindBoot:
				if r.Detected == "" {
					t.Errorf("%s: boot record with no detection: %+v", id, r)
				}
			case core.KindPanic:
				if r.Category == "" || r.Time <= 0 {
					t.Errorf("%s: malformed panic record: %+v", id, r)
				}
			default:
				t.Errorf("%s: unknown record kind %q surfaced from recovery: %+v", id, r.Kind, r)
			}
		}
	}
}

// TestChaosHeadlineWithinBands asserts the study's measurement chain stays
// trustworthy under adversity: the analysed tables remain close to the
// simulator's ground truth even while flash tears and the network drops
// every fifth transfer.
func TestChaosHeadlineWithinBands(t *testing.T) {
	fs, err := RunFieldStudy(chaosConfig(20070626))
	if err != nil {
		t.Fatal(err)
	}
	srv := fs.Collector
	defer srv.Close()

	rep := ValidateDetection(fs)
	if rep.TruthPanics == 0 || rep.TruthFreezes == 0 {
		t.Fatalf("degenerate chaos run: %+v", rep)
	}
	// RDebug sees every panic; losses can only come from torn appends and
	// records the collector never saw. A torn append costs at most the
	// in-flight record, so capture must stay near-perfect.
	if rep.PanicCaptureRate < 0.85 {
		t.Errorf("panic capture rate %.3f under chaos, want >= 0.85 (%d/%d)",
			rep.PanicCaptureRate, rep.LoggedPanics, rep.TruthPanics)
	}
	// Freeze detection relies on the last intact heartbeat; a torn beat
	// append falls back to the previous beat, so recall survives chaos.
	if rep.FreezeRecall < 0.80 {
		t.Errorf("freeze recall %.3f under chaos, want >= 0.80 (%d/%d)",
			rep.FreezeRecall, rep.LoggedFreezes, rep.TruthFreezes)
	}
	if rep.SelfShutdownRatio < 0.6 || rep.SelfShutdownRatio > 1.6 {
		t.Errorf("self-shutdown ratio %.3f under chaos, want within [0.6, 1.6]", rep.SelfShutdownRatio)
	}
	// The uploader's resumable protocol must have delivered a usable
	// dataset: every phone present, with boot history.
	if got := len(fs.Dataset.Devices()); got != len(fs.Fleet.Devices) {
		t.Errorf("dataset holds %d devices, fleet has %d", got, len(fs.Fleet.Devices))
	}
}
