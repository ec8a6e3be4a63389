package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
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

func TestRunQuickPrintsEveryArtefact(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "Section 4.1", "Figure 2", "Section 6",
		"Table 2", "Figure 3", "Figure 4", "Figure 5",
		"Table 3", "Figure 6", "Table 4",
		"MTBFr", "KERN-EXEC 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunExtras(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-extras"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Extras — analyses beyond the paper") {
		t.Error("extras section missing")
	}
	if !strings.Contains(out, "user-reported output failures") {
		t.Error("user-report section missing")
	}
}

func TestRunBadFlag(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"-definitely-not-a-flag"})
	})
	if err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunWorkersEquivalent runs the same quick study serially and sharded
// and requires identical output — every table, figure and headline number —
// modulo the one line that reports wall-clock time, which is exactly the
// only thing -workers may change.
func TestRunWorkersEquivalent(t *testing.T) {
	strip := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "wall-clock") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	serial, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-workers", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-seed", "5", "-workers", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strip(serial) != strip(sharded) {
		t.Error("-workers 4 changed the printed study; parallelism must be output-invariant")
	}
}

// TestRunTCPStreamPrintsLiveTap runs the quick study through the single
// durable server and through a 3-shard fleet with -stream: either way the
// live study on the collector's record tap reports every phone.
func TestRunTCPStreamPrintsLiveTap(t *testing.T) {
	tap := regexp.MustCompile(`live server tap: (\d+) devices, (\d+) records acknowledged mid-study \((\d+) panics\)`)
	for _, args := range [][]string{
		{"-quick", "-seed", "5", "-tcp", "-stream"},
		{"-quick", "-seed", "5", "-tcp", "-servers", "3", "-stream"},
	} {
		out, err := captureStdout(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		m := tap.FindStringSubmatch(out)
		if m == nil {
			t.Errorf("%v: no live-tap line in the output", args)
			continue
		}
		devices, _ := strconv.Atoi(m[1])
		records, _ := strconv.Atoi(m[2])
		panics, _ := strconv.Atoi(m[3])
		if devices != 8 || records == 0 || panics == 0 {
			t.Errorf("%v: live tap saw %d devices, %d records, %d panics; want all 8 quick phones with records and panics",
				args, devices, records, panics)
		}
	}
}
