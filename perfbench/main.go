// Command perfbench is the repository benchmark: it drives the whole
// reproduction — simulated phones, the on-phone logger, the TCP collection
// tier, streaming and live analysis, report rendering — through the public
// functions of each layer, checks the outputs, and prints one JSON result
// line. See README.md in this directory for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper --seed 2007 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. A failed correctness gate
// prints correct=false with no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit; the tables below must
// match BENCHMARK.json (a self-test checks they do).
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"phone_hours_per_s", "h/s"},
	{"live_heap_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer metrics come from the traced run. A layer a workload leaves idle
// reports 0 for its counts and shares; every per-layer time is measured on
// every workload.
var perLayer = []metricDef{
	{"phone.build_s", "s"},
	{"core.install_s", "s"},
	{"sim.run_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.peak_rss_mb", "MB"},
	{"sim.cpu_frac", "frac"},
	{"symbos.cpu_frac", "frac"},
	{"phone.cpu_frac", "frac"},
	{"core.cpu_frac", "frac"},
	{"phone.heap_kb_per_device", "KB"},
	{"core.records", "count"},
	{"core.log_bytes", "B"},
	{"core.scan_s", "s"},
	{"stream.fold_s", "s"},
	{"analysis.snapshot_s", "s"},
	{"report.render_s", "s"},
	{"collect.chunks", "count"},
	{"collect.bytes_sent", "B"},
	{"collect.bytes_per_record", "B"},
	{"collect.wal_appends_per_chunk", "count"},
	{"collect.wal_syncs_per_chunk", "count"},
	{"collect.compactions", "count"},
	{"stream.tap_busy_frac", "frac"},
	{"stream.tap_deliveries", "count"},
	{"stream.tap_dup_frac", "frac"},
	{"stream.query_hook_frac", "frac"},
	{"fleet.handoffs_per_chunk", "count"},
	{"fleet.handoff_failures", "count"},
	{"fleet.suspicions", "count"},
	{"fleet.degraded_requests", "count"},
	{"collect.cpu_frac", "frac"},
	{"fleet.cpu_frac", "frac"},
	{"stream.cpu_frac", "frac"},
	{"net.cpu_frac", "frac"},
	{"core.parse_cpu_frac", "frac"},
	{"core.parse_mb_per_s", "MB/s"},
	{"collect.putmerged_per_s", "1/s"},
	{"collect.store_commit_per_s", "1/s"},
	{"stream.observe_per_s", "1/s"},
	{"trace.uncovered_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// workers is the load one benchmark process applies: simulation workers on
// the study workloads, closed-loop clients on the collection workloads. It
// is the reference host's CPU count, fixed so that the load does not change
// with the machine.
const workers = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// okFrac is the share of attempted operations that succeeded
// (1 − failed_frac); 0 when nothing was attempted.
func okFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// params are one run's inputs.
type params struct {
	seed    uint64
	seconds float64
}

// values maps metric names to measured values; units come from the tables.
type values map[string]float64

// outcome is what a workload run produces: the values of every metric it
// reports plus the operation accounting.
type outcome struct {
	attempted, failed int
	values            values
}

type workload struct {
	run, traced func(params) (outcome, error)
}

var workloads = map[string]workload{
	"paper":     {run: paperRun, traced: paperTraced},
	"ingest":    {run: ingestRun, traced: ingestTraced},
	"replicate": {run: replicateRun, traced: replicateTraced},
}

func main() {
	name := flag.String("workload", "", "paper, ingest or replicate")
	seed := flag.Uint64("seed", 2007, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds}
	run, defs := w.run, endToEnd
	if *trace == 1 {
		run, defs = w.traced, perLayer
	}
	start := time.Now()
	out, err := run(p)
	if err == nil {
		if *trace == 0 {
			out.values["ok_frac"] = okFrac(out.attempted, out.failed)
		} else {
			out.values["runtime.peak_rss_mb"] = peakRSSMB()
		}
	}
	var res result
	if err == nil {
		res, err = assemble(out, defs)
	}
	fmt.Printf("# %s seed=%d trace=%d wall=%.1fs peak_rss=%.1fMB\n", *name, *seed, *trace, time.Since(start).Seconds(), peakRSSMB())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		blob, _ := json.Marshal(result{Attempted: max(out.attempted, 1), Failed: max(out.failed, 1), Metrics: map[string]metric{}})
		fmt.Println(string(blob))
		os.Exit(1)
	}
	for _, d := range defs {
		fmt.Printf("# %-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// assemble turns a workload's outcome into the result line, refusing one
// that misses a declared metric or reports an undeclared one.
func assemble(out outcome, defs []metricDef) (result, error) {
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if out.attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(out.values) {
		return res, fmt.Errorf("%d metrics measured, %d declared", len(out.values), len(res.Metrics))
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// liveHeapMB is the Go heap still reachable after two forced collections
// (the second empties sync.Pool victim caches): the memory the run's
// results hold, which unlike peak RSS does not depend on when the
// collector happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// seedAt derives the i-th input seed of a run: the run's own seed first,
// then well-spread successors, so one run measures several deployments and
// its figures depend less on any single one.
func seedAt(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b97f4a7c15 }

// repeatSetup runs set-up i = 0, 1, ... at least minReps times and until
// minSeconds have gone by, and returns the median set-up time. Each
// repetition starts from a collected heap, as a fresh process would, so
// one repetition's garbage is not charged to the next.
func repeatSetup(minReps int, minSeconds float64, setup func(i int) error) (float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < minReps || since(start) < minSeconds; i++ {
		runtime.GC()
		t := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		times = append(times, since(t))
	}
	return median(times), nil
}

// since returns the host seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
