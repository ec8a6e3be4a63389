package symfail

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeBenchReport writes a bench report of cells cells to the file the
// environment variable env names, or to the committed baseline when env
// is unset or names it. A -bench filter that ran only some cells would
// drop the others' gates from the baseline, so writing fewer cells than
// the committed file holds fails the benchmark; a partial run writes its
// report to another file through env.
func writeBenchReport(b *testing.B, env, baseline string, report any, cells int) {
	b.Helper()
	out := os.Getenv(env)
	if out == "" || filepath.Clean(out) == baseline {
		out = baseline
		if have := baselineCells(b, baseline); cells < have {
			b.Fatalf("%d cells measured, %s holds %d: refusing to overwrite it with a partial grid (set %s to write the report elsewhere)",
				cells, baseline, have, env)
		}
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("bench report written to %s (%d cells)", out, cells)
}

// baselineCells counts the cells of a committed bench report (0 when there
// is none yet).
func baselineCells(b *testing.B, path string) int {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		b.Fatal(err)
	}
	var report struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		b.Fatalf("%s: %v", path, err)
	}
	return len(report.Cells)
}
