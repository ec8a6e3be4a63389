package symfail

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/collect"
	"symfail/internal/phone"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden determinism fingerprint")

// fingerprint is a compact cross-process determinism witness: if any code
// path lets Go's per-process map iteration order (or any other ambient
// nondeterminism) leak into the simulation, this drifts between processes
// even though same-process double runs agree.
type fingerprint struct {
	Panics        int     `json:"panics"`
	Freezes       int     `json:"freezes"`
	SelfShutdowns int     `json:"selfShutdowns"`
	Boots         int     `json:"boots"`
	ObservedHours float64 `json:"observedHours"`
	FirstPanicKey string  `json:"firstPanicKey"`
	FirstPanicAt  int64   `json:"firstPanicAt"`
	LogBytes      int     `json:"logBytes"`
}

// computeFingerprint runs the pinned reduced study with the given worker
// count. The golden tests pin workers=1 (the fully serial path); the
// parallel-equivalence test sweeps worker counts and requires the same
// bytes from every one.
func computeFingerprint(t *testing.T, workers int) fingerprint {
	t.Helper()
	fs, err := RunFieldStudy(FieldStudyConfig{
		Seed:       424242,
		Phones:     6,
		Duration:   3 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth / 2,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := fs.Study.MTBF()
	fp := fingerprint{
		Panics:        len(fs.Study.Panics()),
		Freezes:       rep.Freezes,
		SelfShutdowns: rep.SelfShutdowns,
		ObservedHours: rep.ObservedHours,
	}
	for _, d := range fs.Fleet.Devices {
		fp.Boots += d.BootCount()
	}
	if ps := fs.Study.Panics(); len(ps) > 0 {
		fp.FirstPanicKey = ps[0].Key()
		fp.FirstPanicAt = int64(ps[0].Time)
	}
	for _, l := range fs.Loggers {
		fp.LogBytes += len(l.LogBytes())
	}
	return fp
}

func TestGoldenDeterminismFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "golden_fingerprint.json")
	got := computeFingerprint(t, 1)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %+v", got)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden fingerprint (run `go test -run Golden -update .`): %v", err)
	}
	var want fingerprint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fingerprint drifted.\n got: %+v\nwant: %+v\n"+
			"If the simulation changed intentionally, refresh with `go test -run Golden -update .`;"+
			" otherwise nondeterminism (e.g. map iteration) leaked into the model.", got, want)
	}
	_ = analysis.DefaultOptions()
}

// TestGoldenFingerprintByteIdentical re-marshals the computed fingerprint
// and compares it byte for byte against the golden file, a stricter check
// than the field-wise one above: JSON encoding, field order, and float
// formatting are all part of the witness. It guards that behaviour-neutral
// sweeps (such as the symlint-driven cleanup) stay behaviour-neutral.
//
// `make check` runs this same test in a -race build; the race-enabled run
// path must produce the identical bytes, since instrumentation may not
// perturb the simulation (only the scheduler, which the engine never
// consults).
func TestGoldenFingerprintByteIdentical(t *testing.T) {
	if *updateGolden {
		t.Skip("golden being rewritten by TestGoldenDeterminismFingerprint")
	}
	path := filepath.Join("testdata", "golden_fingerprint.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden fingerprint (run `go test -run Golden -update .`): %v", err)
	}
	got := computeFingerprint(t, 1)
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if !bytes.Equal(blob, want) {
		t.Errorf("golden fingerprint is not byte-identical.\n got: %s\nwant: %s", blob, want)
	}
}

// advFingerprint witnesses an adversity-enabled run: same seed + same
// fault config must reproduce not only the simulation but the injected
// faults, the recovery tallies and the exact bytes of the merged dataset.
type advFingerprint struct {
	fingerprint
	// DatasetCRC is a CRC-32C over the merged dataset (device IDs and log
	// bytes, in sorted device order) — "byte-identical dataset" in one
	// number.
	DatasetCRC uint32 `json:"datasetCRC"`
	// Injected-fault and recovery ground truth.
	TornWrites uint64 `json:"tornWrites"`
	BitFlips   uint64 `json:"bitFlips"`
	Salvaged   int    `json:"salvaged"`
	Lost       int    `json:"lost"`
}

// adversityStudyConfig is the pinned fault calibration for the golden
// adversity run, collected through the durable single server.
func adversityStudyConfig() FieldStudyConfig {
	return FieldStudyConfig{
		Seed:        979797,
		Phones:      4,
		Duration:    2 * phone.StudyMonth,
		JoinWindow:  phone.StudyMonth / 4,
		UploadEvery: 2 * 24 * time.Hour,
		Servers:     1,
		Adversity: AdversityConfig{
			Flash: phone.FlashFaults{
				TornWriteProb:  0.6,
				BitRotPerWrite: 0.004,
				QuotaBytes:     512 << 10,
			},
			Net: collect.NetFaults{
				RefuseProb:  0.08,
				DropProb:    0.04,
				CorruptProb: 0.04,
				DropAckProb: 0.04,
			},
			RetryBase: 30 * time.Minute,
			RetryMax:  8 * time.Hour,
		},
	}
}

func computeAdversityFingerprint(t *testing.T, workers int) advFingerprint {
	t.Helper()
	cfg := adversityStudyConfig()
	cfg.Workers = workers
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := fs.Collector
	defer srv.Close()
	rep := fs.Study.MTBF()
	fp := advFingerprint{fingerprint: fingerprint{
		Panics:        len(fs.Study.Panics()),
		Freezes:       rep.Freezes,
		SelfShutdowns: rep.SelfShutdowns,
		ObservedHours: rep.ObservedHours,
	}}
	for _, d := range fs.Fleet.Devices {
		fp.Boots += d.BootCount()
		fp.TornWrites += d.FS().TornWrites()
		fp.BitFlips += d.FS().BitFlips()
	}
	if ps := fs.Study.Panics(); len(ps) > 0 {
		fp.FirstPanicKey = ps[0].Key()
		fp.FirstPanicAt = int64(ps[0].Time)
	}
	for _, l := range fs.Loggers {
		fp.LogBytes += len(l.LogBytes())
	}
	for _, id := range fs.Dataset.Devices() {
		for _, r := range fs.Dataset.Records(id) {
			fp.Salvaged += r.LogSalvaged
			fp.Lost += r.LogLost
		}
	}
	fp.DatasetCRC = fs.Dataset.CRC32C()
	return fp
}

// TestGoldenAdversityFingerprint pins the adversity-enabled run: fault
// injection (flash tears, bit rot, network refusals/drops/corruption/lost
// ACKs), crash-safe recovery and the hardened collection pipeline must all
// be pure functions of the seed, down to the merged dataset's bytes.
func TestGoldenAdversityFingerprint(t *testing.T) {
	path := filepath.Join("testdata", "golden_fingerprint_adversity.json")
	got := computeAdversityFingerprint(t, 1)
	if got.TornWrites == 0 {
		t.Error("adversity run injected no torn writes — the fault config is not reaching the flash")
	}
	if got.Salvaged == 0 {
		t.Error("no boot-time recovery happened — torn logs are not being repaired")
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("adversity golden updated: %+v", got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no adversity golden (run `go test -run Golden -update .`): %v", err)
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if !bytes.Equal(blob, want) {
		t.Errorf("adversity fingerprint drifted.\n got: %s\nwant: %s\n"+
			"If the adversity model changed intentionally, refresh with `go test -run Golden -update .`;"+
			" otherwise fault injection is not a pure function of the seed.", blob, want)
	}
}

// TestNoUnclassifiedPanics asserts the dynamic side of the panictaxonomy
// contract on a real run: every panic the field study produced is in
// analysis.KnownPanicKeys (symlint proves the same for every *possible*
// raise site, statically).
func TestNoUnclassifiedPanics(t *testing.T) {
	fs, err := RunFieldStudy(FieldStudyConfig{
		Seed:       424242,
		Phones:     6,
		Duration:   3 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if keys := fs.Study.UnclassifiedPanicKeys(); len(keys) != 0 {
		t.Errorf("panics outside the Table 2 taxonomy: %v", keys)
	}
}
