package collect

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"symfail/internal/core"
)

// encodeLog serialises records into one log blob.
func encodeLog(recs ...core.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, core.EncodeRecord(r)...)
	}
	return out
}

// streamTestDataset builds a small three-device dataset, including a
// zero-record device.
func streamTestDataset() *Dataset {
	ds := NewDataset()
	ds.Put("phone-01", encodeLog(
		core.Record{Kind: core.KindBoot, Time: 1, Boot: 1, Detected: core.DetectedFirstBoot},
		core.Record{Kind: core.KindPanic, Time: 5, Category: "KERN-EXEC", PType: 3},
	))
	ds.Put("phone-02", encodeLog(
		core.Record{Kind: core.KindBoot, Time: 2, Boot: 1, Detected: core.DetectedFirstBoot},
	))
	ds.Put("phone-03", nil) // joined the study, produced nothing
	return ds
}

// collectStream drains a streaming source into per-device slices plus the
// begin order.
func collectStream(t *testing.T, streamFn func(func(string) error, func(string, core.Record) error) error) ([]string, map[string][]core.Record) {
	t.Helper()
	var order []string
	got := make(map[string][]core.Record)
	err := streamFn(
		func(id string) error {
			order = append(order, id)
			got[id] = nil
			return nil
		},
		func(id string, r core.Record) error {
			got[id] = append(got[id], r)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return order, got
}

func TestDatasetStreamMatchesAllRecords(t *testing.T) {
	ds := streamTestDataset()
	order, got := collectStream(t, ds.Stream)
	if want := []string{"phone-01", "phone-02", "phone-03"}; !reflect.DeepEqual(order, want) {
		t.Errorf("begin order = %v, want %v", order, want)
	}
	want := ds.AllRecords()
	if len(got) != len(want) {
		t.Fatalf("streamed %d devices, AllRecords has %d", len(got), len(want))
	}
	for id, recs := range want {
		if !reflect.DeepEqual(got[id], recs) && !(len(got[id]) == 0 && len(recs) == 0) {
			t.Errorf("%s: streamed %v, batch %v", id, got[id], recs)
		}
	}
}

func TestDatasetStreamStopsOnCallbackError(t *testing.T) {
	ds := streamTestDataset()
	boom := errors.New("boom")
	var seen int
	err := ds.Stream(nil, func(string, core.Record) error {
		seen++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if seen != 1 {
		t.Errorf("callback ran %d times after erroring, want 1", seen)
	}
	// nil callbacks are allowed: visiting without consuming.
	if err := ds.Stream(nil, nil); err != nil {
		t.Errorf("Stream(nil, nil) = %v", err)
	}
}

func TestStreamDirMatchesImportDir(t *testing.T) {
	ds := streamTestDataset()
	dir := t.TempDir()
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	imported, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	order, got := collectStream(t, func(begin func(string) error, fn func(string, core.Record) error) error {
		return StreamDir(dir, begin, fn)
	})
	if want := imported.Devices(); !reflect.DeepEqual(order, want) {
		t.Errorf("begin order = %v, want %v", order, want)
	}
	for id, want := range imported.AllRecords() {
		if !reflect.DeepEqual(got[id], want) && !(len(got[id]) == 0 && len(want) == 0) {
			t.Errorf("%s: streamed %v, imported %v", id, got[id], want)
		}
	}
}

func TestStreamDirDetectsTruncation(t *testing.T) {
	ds := streamTestDataset()
	dir := t.TempDir()
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	name, err := deviceFileName("phone-01")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	err = StreamDir(dir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("StreamDir on truncated file = %v, want truncation error", err)
	}
}

// TestServerOnRecordFiresOncePerUniqueRecord: the live tap sees each
// acknowledged record exactly once per server incarnation — duplicate
// uploads and overlapping re-uploads do not re-fire it.
func TestServerOnRecordFiresOncePerUniqueRecord(t *testing.T) {
	recA := core.Record{Kind: core.KindBoot, Time: 1, Boot: 1, Detected: core.DetectedFirstBoot}
	recB := core.Record{Kind: core.KindPanic, Time: 2, Category: "USER", PType: 11}
	recC := core.Record{Kind: core.KindPanic, Time: 3, Category: "KERN-EXEC", PType: 3}

	ds := NewDataset()
	var tapped []core.Record
	var devices []string
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{
		OnRecord: func(id string, r core.Record) {
			devices = append(devices, id)
			tapped = append(tapped, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := uploadLog(srv.Addr(), "p", encodeLog(recA, recB)); err != nil {
		t.Fatal(err)
	}
	if err := uploadLog(srv.Addr(), "p", encodeLog(recA, recB)); err != nil { // pure duplicate
		t.Fatal(err)
	}
	if err := uploadLog(srv.Addr(), "p", encodeLog(recB, recC)); err != nil { // overlap + one new
		t.Fatal(err)
	}
	want := []core.Record{recA, recB, recC}
	if !reflect.DeepEqual(tapped, want) {
		t.Errorf("tap saw %v, want each unique record once: %v", tapped, want)
	}
	for _, id := range devices {
		if id != "p" {
			t.Errorf("tap reported device %q, want p", id)
		}
	}
}
