package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symfail"
	"symfail/internal/analysis"
	"symfail/internal/collect"
	"symfail/internal/phone"
	"symfail/internal/report"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	_ = w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// exportSmallStudy simulates a small study and exports its dataset.
func exportSmallStudy(t *testing.T) string {
	t.Helper()
	fs, err := symfail.RunFieldStudy(symfail.FieldStudyConfig{
		Seed:       3,
		Phones:     4,
		Duration:   2 * phone.StudyMonth,
		JoinWindow: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	if err := collect.ExportDir(fs.Dataset, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeTables(t *testing.T) {
	dir := exportSmallStudy(t)
	out, err := capture(t, func() error { return run([]string{"-data", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset: 4 devices", "Figure 2", "Table 2", "MTBFr", "Extras"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAnalyzeJSON(t *testing.T) {
	dir := exportSmallStudy(t)
	out, err := capture(t, func() error { return run([]string{"-data", dir, "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if sum.Devices != 4 || sum.ObservedHours <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Panics > 0 && len(sum.PanicShares) == 0 {
		t.Error("panic shares missing")
	}
}

// TestAnalyzeStreamMatchesBatch pins the two input paths to one output: the
// -json summaries are byte-equal, and the printed reports differ only in
// the header line and the batch-only Extras block that ends the batch
// report.
func TestAnalyzeStreamMatchesBatch(t *testing.T) {
	dir := exportSmallStudy(t)
	ds, err := collect.ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags []string
		opts  analysis.Options
	}{
		{nil, analysis.Options{SelfShutdownThreshold: 360 * time.Second, CoalescenceWindow: 5 * time.Minute}},
		{[]string{"-threshold", "2m", "-window", "90s"}, analysis.Options{SelfShutdownThreshold: 2 * time.Minute, CoalescenceWindow: 90 * time.Second}},
	} {
		out := func(extra ...string) string {
			t.Helper()
			args := append(append([]string{"-data", dir}, tc.flags...), extra...)
			got, err := capture(t, func() error { return run(args) })
			if err != nil {
				t.Fatalf("analyze %v: %v", args, err)
			}
			return got
		}
		if batch, streamed := out("-json"), out("-json", "-stream"); batch != streamed {
			t.Errorf("%v: -json differs between batch and -stream:\nbatch:\n%s\nstream:\n%s", tc.flags, batch, streamed)
		}
		head := "dataset: 4 devices from " + dir
		batch, ok := strings.CutPrefix(out(), head+"\n\n")
		if !ok {
			t.Fatalf("%v: batch report does not start with %q", tc.flags, head)
		}
		streamed, ok := strings.CutPrefix(out("-stream"), head+" (streamed)\n\n")
		if !ok {
			t.Fatalf("%v: -stream report does not start with %q (streamed)", tc.flags, head)
		}
		extras := report.Extras(analysis.New(ds.AllRecords(), tc.opts)) + "\n"
		if batch != streamed+extras {
			t.Errorf("%v: batch report is not the -stream report plus Extras:\nbatch:\n%s\nstream:\n%s", tc.flags, batch, streamed)
		}
	}
}

func TestAnalyzeThresholdChangesClassification(t *testing.T) {
	dir := exportSmallStudy(t)
	get := func(thr string) summary {
		out, err := capture(t, func() error {
			return run([]string{"-data", dir, "-json", "-threshold", thr})
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum summary
		if err := json.Unmarshal([]byte(out), &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	small := get("1s")
	paper := get("360s")
	huge := get((24 * time.Hour).String())
	if !(small.SelfShutdowns <= paper.SelfShutdowns && paper.SelfShutdowns <= huge.SelfShutdowns) {
		t.Errorf("threshold monotonicity broken: %d / %d / %d",
			small.SelfShutdowns, paper.SelfShutdowns, huge.SelfShutdowns)
	}
}

func TestAnalyzeRequiresData(t *testing.T) {
	if _, err := capture(t, func() error { return run(nil) }); err == nil {
		t.Error("missing -data accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"-data", "/nonexistent-dir"}) }); err == nil {
		t.Error("bad -data accepted")
	}
}
