package symfail

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/report"
	"symfail/internal/sim"
)

// These tests are the streaming refactor's keystone: the batch Study, the
// single-pass Tables accumulator, and shard-merged accumulators built over
// random device splits must produce byte-identical tables — and those tables
// must agree with the pinned golden fingerprints, which predate the refactor
// and were NOT regenerated. `make stream` runs this file under -race.

// snapshotJSON marshals a tables snapshot; byte equality of these blobs is
// the equivalence criterion (field order, float formatting and all).
func snapshotJSON(t *testing.T, sn *stream.TablesSnapshot) []byte {
	t.Helper()
	blob, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// streamSnapshot feeds a dataset through the composite accumulator the way
// cmd/analyze -stream does: one device at a time through a sorting Feeder.
func streamSnapshot(t *testing.T, ds *collect.Dataset, opts analysis.Options) *stream.TablesSnapshot {
	t.Helper()
	acc := stream.NewTables(opts)
	f := &stream.Feeder{AddDevice: acc.AddDevice, Observe: acc.Observe}
	if err := ds.Stream(f.Begin, f.Record); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	return acc.Tables()
}

// shardedSnapshot splits the dataset's devices into shards at random, builds
// one accumulator per shard, and merges them in shuffled order.
func shardedSnapshot(t *testing.T, ds *collect.Dataset, opts analysis.Options, shards int, rng *sim.Rand) *stream.TablesSnapshot {
	t.Helper()
	devices := ds.Devices()
	parts := make([]*stream.Tables, shards)
	feeders := make([]*stream.Feeder, shards)
	for i := range parts {
		parts[i] = stream.NewTables(opts)
		feeders[i] = &stream.Feeder{AddDevice: parts[i].AddDevice, Observe: parts[i].Observe}
	}
	assign := make(map[string]int, len(devices))
	for _, id := range devices {
		assign[id] = rng.Intn(shards)
	}
	err := ds.Stream(
		func(id string) error { return feeders[assign[id]].Begin(id) },
		func(id string, r core.Record) error { return feeders[assign[id]].Record(id, r) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feeders {
		f.Flush()
	}
	// Merge in shuffled order.
	order := make([]int, shards)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	root := parts[order[0]]
	for _, i := range order[1:] {
		if err := root.Merge(parts[i]); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	return root.Tables()
}

// TestStreamEquivalence proves batch == stream == shard-merged on the pinned
// golden study, across worker counts, and anchors the streaming results to
// the pre-refactor golden fingerprint.
func TestStreamEquivalence(t *testing.T) {
	fs, err := RunFieldStudy(FieldStudyConfig{
		Seed:       424242,
		Phones:     6,
		Duration:   3 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth / 2,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := snapshotJSON(t, fs.Study.Snapshot())
	opts := fs.Study.Options()

	streamed := streamSnapshot(t, fs.Dataset, opts)
	if got := snapshotJSON(t, streamed); !bytes.Equal(got, batch) {
		t.Errorf("streaming snapshot differs from batch:\n got: %s\nwant: %s", got, batch)
	}

	rng := sim.NewRand(7)
	for _, shards := range []int{2, 3, 5} {
		sharded := shardedSnapshot(t, fs.Dataset, opts, shards, rng)
		if got := snapshotJSON(t, sharded); !bytes.Equal(got, batch) {
			t.Errorf("%d-shard merged snapshot differs from batch", shards)
		}
	}

	for _, workers := range []int{2, 4, 8} {
		fsw, err := RunFieldStudy(FieldStudyConfig{
			Seed:       424242,
			Phones:     6,
			Duration:   3 * phone.StudyMonth,
			JoinWindow: phone.StudyMonth / 2,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshotJSON(t, fsw.Study.Snapshot()); !bytes.Equal(got, batch) {
			t.Errorf("workers=%d snapshot differs from workers=1", workers)
		}
	}

	// Anchor to the pinned pre-refactor golden fingerprint: the streaming
	// counts must reproduce it without the golden ever being regenerated.
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_fingerprint.json"))
	if err != nil {
		t.Fatalf("no golden fingerprint: %v", err)
	}
	var want fingerprint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if streamed.Coalescence.TotalPanics != want.Panics {
		t.Errorf("streamed panics = %d, golden %d", streamed.Coalescence.TotalPanics, want.Panics)
	}
	if streamed.MTBF.Freezes != want.Freezes {
		t.Errorf("streamed freezes = %d, golden %d", streamed.MTBF.Freezes, want.Freezes)
	}
	if streamed.MTBF.SelfShutdowns != want.SelfShutdowns {
		t.Errorf("streamed self-shutdowns = %d, golden %d", streamed.MTBF.SelfShutdowns, want.SelfShutdowns)
	}
	if streamed.MTBF.ObservedHours != want.ObservedHours {
		t.Errorf("streamed observed hours = %v, golden %v", streamed.MTBF.ObservedHours, want.ObservedHours)
	}
}

// TestStreamReportEquivalence proves the rendered paper report is
// byte-identical between the batch Study's snapshot and the streamed Tables
// snapshot of the same dataset. The batch side also covers the Study's own
// reducer set when it is merged from per-device Collects across four
// workers, and a snapshot read after a Figure 4 window sweep re-coalesced
// the Study's events.
func TestStreamReportEquivalence(t *testing.T) {
	cfg := FieldStudyConfig{
		Seed:       424242,
		Phones:     6,
		Duration:   3 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth / 2,
		Workers:    1,
	}
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamSnapshot(t, fs.Dataset, fs.Study.Options())
	cfg.Workers = 4
	merged, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged.Study.WindowSweep([]time.Duration{30 * time.Second, time.Hour})
	renderers := []struct {
		name   string
		render func(*stream.TablesSnapshot) string
	}{
		{"Figure2", report.Figure2FromSnapshot},
		{"MTBF", report.MTBFFromSnapshot},
		{"Table2", report.Table2FromSnapshot},
		{"Figure3", report.Figure3FromSnapshot},
		{"Figure5", report.Figure5FromSnapshot},
		{"Table3", report.Table3FromSnapshot},
		{"Figure6", report.Figure6FromSnapshot},
		{"Table4", report.Table4FromSnapshot},
	}
	for _, study := range []struct {
		name  string
		batch *stream.TablesSnapshot
	}{
		{"workers=1", fs.Study.Snapshot()},
		{"workers=4 after WindowSweep", merged.Study.Snapshot()},
	} {
		if got, want := snapshotJSON(t, study.batch), snapshotJSON(t, streamed); !bytes.Equal(got, want) {
			t.Errorf("%s: batch snapshot differs from stream:\n got: %s\nwant: %s", study.name, got, want)
		}
		for _, r := range renderers {
			if b, st := r.render(study.batch), r.render(streamed); b != st {
				t.Errorf("%s: %s renders differently:\nbatch:\n%s\nstream:\n%s", study.name, r.name, b, st)
			}
		}
	}
}

// TestStreamAdversityEquivalence runs the pinned adversity study (flash
// tears, network faults, TCP collection) and proves the same batch == stream
// == shard-merged equivalence over the dataset that travelled the wire.
func TestStreamAdversityEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("adversity study in -short mode")
	}
	cfg := adversityStudyConfig()
	cfg.Workers = 1
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup := fs.Collector
	defer sup.Close()
	batch := snapshotJSON(t, fs.Study.Snapshot())
	opts := fs.Study.Options()

	if got := snapshotJSON(t, streamSnapshot(t, fs.Dataset, opts)); !bytes.Equal(got, batch) {
		t.Errorf("adversity streaming snapshot differs from batch:\n got: %s\nwant: %s", got, batch)
	}
	rng := sim.NewRand(11)
	for _, shards := range []int{2, 4} {
		if got := snapshotJSON(t, shardedSnapshot(t, fs.Dataset, opts, shards, rng)); !bytes.Equal(got, batch) {
			t.Errorf("adversity %d-shard merged snapshot differs from batch", shards)
		}
	}
}
