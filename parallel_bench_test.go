package symfail

// BenchmarkFleetScaling is the perf-regression harness for sharded fleet
// execution: it sweeps fleet size × worker count, reports simulated
// phone-hours per wall-clock second for every cell, and writes the whole
// grid (with per-fleet-size speedups vs the serial run) to
// BENCH_parallel.json so future PRs have a perf trajectory to compare
// against. Run it alone for stable numbers:
//
//	go test -bench BenchmarkFleetScaling -benchtime 1x .
//
// The observation window shrinks as the fleet grows so every cell does
// comparable total work; phone-hours/sec is the scale-free metric.
// Speedup is wall-clock-bound by the host: on a single-core machine every
// worker count measures ≈ 1.0×, which is itself the determinism story —
// the sharded path costs nothing when there is nothing to win.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"symfail/internal/phone"
)

// scalingCell is one measured (phones, workers) point of the grid.
type scalingCell struct {
	Phones           int     `json:"phones"`
	Workers          int     `json:"workers"`
	Months           float64 `json:"months"`
	PhoneHours       float64 `json:"phoneHours"`
	WallSeconds      float64 `json:"wallSeconds"`
	PhoneHoursPerSec float64 `json:"phoneHoursPerSec"`
	// Speedup is PhoneHoursPerSec over the workers=1 cell of the same
	// fleet size (1.0 for the serial cell itself).
	Speedup float64 `json:"speedup"`
	// RSSMB is the process resident set right after the cell's last run,
	// before the fleet is released — the memory footprint of holding that
	// many simulated devices live at once.
	RSSMB float64 `json:"rssMB,omitempty"`
	// AllocsPerEvent is the whole study's heap allocations per fired
	// simulation event (its collection and analysis included), measured
	// on the serial cells only, where the count is deterministic;
	// benchdiff gates it like every allocs* field.
	AllocsPerEvent float64 `json:"allocsPerEvent,omitempty"`
}

type scalingReport struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"goVersion"`
	Cells      []scalingCell `json:"cells"`
}

// scalingWorkerCounts returns the worker sweep: serial, 4 (the ISSUE's
// reference point), and the host's full width when that differs.
func scalingWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// benchGCPercent is the GOGC value for the ≥100k-phone cells; the
// BENCH_GOGC env var overrides it for headroom experiments.
func benchGCPercent() int {
	if s := os.Getenv("BENCH_GOGC"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return 400
}

// readRSSMB returns the process resident set size in MiB from
// /proc/self/statm, or 0 where that interface is unavailable.
func readRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

func BenchmarkFleetScaling(b *testing.B) {
	grid := []struct {
		phones   int
		duration time.Duration
	}{
		{25, 2 * phone.StudyMonth},
		{100, phone.StudyMonth},
		{1000, phone.StudyMonth / 4},
		// The large-fleet cells run a short horizon so total simulated work
		// stays bounded; what they probe is that per-event cost and memory
		// stay flat as the device count grows three orders of magnitude.
		// Serial only: the sweep's worker story is told by the small cells.
		{100_000, phone.StudyMonth / 60},
		{1_000_000, phone.StudyMonth / 120},
	}
	report := scalingReport{GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, g := range grid {
		serialRate := 0.0
		workerCounts := scalingWorkerCounts()
		if g.phones >= 100_000 {
			workerCounts = []int{1}
		}
		for _, workers := range workerCounts {
			name := fmt.Sprintf("phones=%d/workers=%d", g.phones, workers)
			var cell scalingCell
			b.Run(name, func(b *testing.B) {
				if g.phones >= 100_000 {
					// A million live devices hold tens of GB; at the default
					// GOGC the collector re-marks that live set every couple
					// of GB of allocation and the mark, not the simulation,
					// dominates. Trade headroom (the host has far more RAM
					// than 4x the live set) for mark frequency.
					defer debug.SetGCPercent(debug.SetGCPercent(benchGCPercent()))
				}
				var hours float64
				var mallocs, events uint64
				for i := 0; i < b.N; i++ {
					var before runtime.MemStats
					if workers == 1 {
						b.StopTimer()
						runtime.ReadMemStats(&before)
						b.StartTimer()
					}
					fs, err := RunFieldStudy(FieldStudyConfig{
						Seed:       2007,
						Phones:     g.phones,
						Workers:    workers,
						Duration:   g.duration,
						JoinWindow: g.duration / 4,
					})
					if err != nil {
						b.Fatal(err)
					}
					hours += fs.Fleet.ObservedHours()
					if workers == 1 {
						b.StopTimer()
						var after runtime.MemStats
						runtime.ReadMemStats(&after)
						mallocs += after.Mallocs - before.Mallocs
						for _, eng := range fs.Fleet.Engines {
							events += eng.Fired()
						}
						b.StartTimer()
					}
					if i == b.N-1 {
						cell.RSSMB = readRSSMB() // fleet still live: footprint, not garbage
					}
				}
				wall := b.Elapsed().Seconds()
				cell.Phones = g.phones
				cell.Workers = workers
				cell.Months = float64(g.duration) / float64(phone.StudyMonth)
				cell.PhoneHours = hours
				cell.WallSeconds = wall
				if wall > 0 {
					cell.PhoneHoursPerSec = hours / wall
				}
				if events > 0 {
					cell.AllocsPerEvent = float64(mallocs) / float64(events)
					b.ReportMetric(cell.AllocsPerEvent, "allocs/event")
				}
				b.ReportMetric(cell.PhoneHoursPerSec, "phone-hours/s")
				b.ReportMetric(cell.RSSMB, "RSS-MB")
			})
			if cell.Phones == 0 {
				continue // sub-bench filtered out by -bench
			}
			if workers == 1 {
				serialRate = cell.PhoneHoursPerSec
			}
			if serialRate > 0 {
				cell.Speedup = cell.PhoneHoursPerSec / serialRate
			}
			report.Cells = append(report.Cells, cell)
		}
	}
	if len(report.Cells) == 0 {
		return
	}
	writeBenchReport(b, "BENCH_PARALLEL_OUT", "BENCH_parallel.json", report, len(report.Cells))
}
