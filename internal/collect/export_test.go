package collect

import (
	"os"
	"path/filepath"
	"testing"
)

// snapshot copies the per-device logs.
func (ds *Dataset) snapshot() map[string][]byte {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make(map[string][]byte, len(ds.files))
	for _, id := range sortedKeys(ds.files) {
		out[id] = append([]byte(nil), ds.files[id]...)
	}
	return out
}

func TestExportImportRoundTrip(t *testing.T) {
	ds := NewDataset()
	ds.Put("phone-01", []byte("log one"))
	ds.Put("phone-02", []byte("log two, longer"))
	dir := t.TempDir()
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	back, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Devices(); len(got) != 2 {
		t.Fatalf("devices = %v", got)
	}
	for _, id := range []string{"phone-01", "phone-02"} {
		want, _ := ds.Get(id)
		got, ok := back.Get(id)
		if !ok || string(got) != string(want) {
			t.Errorf("%s: got %q, want %q", id, got, want)
		}
	}
}

func TestExportEmptyDataset(t *testing.T) {
	dir := t.TempDir()
	if err := ExportDir(NewDataset(), dir); err != nil {
		t.Fatal(err)
	}
	back, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Devices()) != 0 {
		t.Errorf("devices = %v", back.Devices())
	}
}

func TestExportRejectsUnsafeIDs(t *testing.T) {
	for _, id := range []string{"../escape", "a/b", "c\\d", "x:y"} {
		ds := NewDataset()
		ds.Put(id, []byte("x"))
		if err := ExportDir(ds, t.TempDir()); err == nil {
			t.Errorf("id %q exported", id)
		}
	}
}

func TestImportMissingManifest(t *testing.T) {
	if _, err := ImportDir(t.TempDir()); err == nil {
		t.Error("import of empty dir succeeded")
	}
}

func TestImportTruncatedLog(t *testing.T) {
	ds := NewDataset()
	ds.Put("p", []byte("full contents"))
	dir := t.TempDir()
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.log"), []byte("cut"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportDir(dir); err == nil {
		t.Error("truncated log accepted")
	}
}

func TestImportMissingLogFile(t *testing.T) {
	ds := NewDataset()
	ds.Put("p", []byte("data"))
	dir := t.TempDir()
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "p.log")); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportDir(dir); err == nil {
		t.Error("missing log accepted")
	}
}

func TestImportCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportDir(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func TestExportOverwrites(t *testing.T) {
	dir := t.TempDir()
	ds := NewDataset()
	ds.Put("p", []byte("old"))
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	ds.Put("p", []byte("new data"))
	if err := ExportDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	back, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Get("p")
	if string(got) != "new data" {
		t.Errorf("got %q", got)
	}
}
