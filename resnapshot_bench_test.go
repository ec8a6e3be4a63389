package symfail

// BenchmarkResnapshotOverhead is the perf harness for the live query
// tier's read path: over a loaded LiveStudy (records folded in, study still
// running) it measures one read — the mtbf query answer, rendered from the
// per-device sessions, and the day-bucket re-render of the windowed and
// decaying views — on 2- and 14-month studies, and writes the grid to
// BENCH_resnapshot.json so `make bench-check` gates it. Run it alone for
// stable numbers:
//
//	go test -run xxx -bench BenchmarkResnapshotOverhead -benchtime 1s .

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/phone"
)

type resnapshotCell struct {
	Phones          int     `json:"phones"`
	Months          float64 `json:"months"`
	Records         int     `json:"records"`
	Mode            string  `json:"mode"` // which read is timed
	NsPerOp         float64 `json:"nsPerOp"`
	BytesPerOp      float64 `json:"bytesPerOp"`
	AllocsPerOp     float64 `json:"allocsPerOp"`
	SnapshotsPerSec float64 `json:"snapshotsPerSec"`
}

type resnapshotReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"goVersion"`
	Cells      []resnapshotCell `json:"cells"`
}

func BenchmarkResnapshotOverhead(b *testing.B) {
	const phones, allocRuns = 25, 100
	report := resnapshotReport{GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	// 14 months is the paper's deployment length and the ingest workload's
	// horizon: a read whose cost grows per simulated day shows there, not
	// at 2 months.
	for _, months := range []int{2, 14} {
		b.Run(fmt.Sprintf("months=%d", months), func(b *testing.B) {
			report.Cells = append(report.Cells, resnapshotCells(b, phones, months, allocRuns)...)
		})
	}
	if len(report.Cells) == 0 {
		return
	}
	writeBenchReport(b, "BENCH_RESNAPSHOT_OUT", "BENCH_resnapshot.json", report, len(report.Cells))
}

// resnapshotCells loads a LiveStudy with the study of phones phones over
// months months and times each read on it.
func resnapshotCells(b *testing.B, phones, months, allocRuns int) []resnapshotCell {
	duration := time.Duration(months) * phone.StudyMonth
	ds, records := streamBenchDataset(b, phones, duration)

	live := stream.NewLiveStudy(analysis.Options{})
	f := &stream.Feeder{Observe: live.Observe}
	if err := ds.Stream(f.Begin, f.Record); err != nil {
		b.Fatal(err)
	}
	f.Flush()

	modes := []struct {
		mode string
		snap func() any
	}{
		{"mtbf", func() any {
			out, err := live.Query("mtbf", nil)
			if err != nil {
				b.Fatal(err)
			}
			return out
		}},
		{"window", func() any { return live.Window(0) }},
		{"decay", func() any { return live.Decay() }},
	}
	var cells []resnapshotCell
	for _, m := range modes {
		var cell resnapshotCell
		b.Run(m.mode, func(b *testing.B) {
			b.ReportAllocs()
			var sink any
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = m.snap()
			}
			b.StopTimer()
			if sink == nil {
				b.Fatal("nil snapshot")
			}
			res := testing.BenchmarkResult{N: b.N, T: b.Elapsed()}
			cell = resnapshotCell{
				Phones:  phones,
				Months:  float64(duration) / float64(phone.StudyMonth),
				Records: records,
				Mode:    m.mode,
				NsPerOp: float64(res.NsPerOp()),
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				cell.SnapshotsPerSec = float64(b.N) / secs
			}
			b.ReportMetric(cell.SnapshotsPerSec, "snapshots/s")
		})
		if cell.Phones == 0 {
			continue // sub-bench filtered out by -bench
		}
		// B/op and allocs/op for the JSON trajectory, averaged outside the
		// timed loop (the harness prints its own via ReportAllocs).
		// AllocsPerRun pins GOMAXPROCS to 1 and warms up first, so stray
		// runtime allocations do not move the gated count.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < allocRuns; i++ {
			_ = m.snap()
		}
		runtime.ReadMemStats(&after)
		cell.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(allocRuns)
		cell.AllocsPerOp = testing.AllocsPerRun(allocRuns, func() { _ = m.snap() })
		cells = append(cells, cell)
	}
	return cells
}
