package main

import (
	"fmt"
	"runtime"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// tracer times the traced run's phases. Spans are sequential calls into
// one layer each, recorded from the benchmark's side of the call; the
// program itself carries no instrumentation.
type tracer struct {
	start   time.Time
	covered float64
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// span runs fn and returns its host seconds, counting them as covered.
func (t *tracer) span(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	d := since(t0)
	t.covered += d
	return d, err
}

// uncovered is the share of the traced run's wall time no span covers.
func (t *tracer) uncovered() float64 { return 1 - t.covered/since(t.start) }

// newLayerValues returns the per-layer metrics with every value at 0, the
// reading of a layer the workload leaves idle.
func newLayerValues() values {
	v := values{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// traceFleet builds a fleet, installs the logger (and whatever attach adds)
// on every phone and runs it, each in its own span, recording the
// simulator's per-layer metrics: event counts, allocations, GC, the CPU
// profile of the run bucketed by layer, and the live heap per device.
func traceFleet(tr *tracer, v values, s shape, seed uint64, attach func(*phone.Device, *core.Logger)) (*phone.Fleet, []*core.Logger, error) {
	var fl *phone.Fleet
	var loggers []*core.Logger
	v["phone.build_s"], _ = tr.span(func() error {
		fl = phone.NewFleet(s.fleetConfig(seed))
		return nil
	})
	v["core.install_s"], _ = tr.span(func() error {
		for _, d := range fl.Devices {
			l := core.Install(d, core.Config{})
			loggers = append(loggers, l)
			if attach != nil {
				attach(d, l)
			}
		}
		return nil
	})
	var before, after runtime.MemStats
	var prof *profile
	runtime.ReadMemStats(&before)
	d, err := tr.span(func() error {
		var err error
		prof, err = cpuProfile(fl.Run)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("run fleet: %w", err)
	}
	runtime.ReadMemStats(&after)
	var events uint64
	for _, e := range fl.Engines {
		events += e.Fired()
	}
	v["sim.run_s"] = d
	v["sim.events"] = float64(events)
	v["sim.ns_per_event"] = d * 1e9 / float64(max(events, 1))
	v["sim.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(max(events, 1))
	v["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	sh := prof.shares()
	v["runtime.gc_cpu_frac"] = sh["gc"]
	for _, layer := range []string{"sim", "symbos", "phone", "core"} {
		v[layer+".cpu_frac"] = sh[layer]
	}
	_, _ = tr.span(func() error {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		v["phone.heap_kb_per_device"] = float64(ms.HeapAlloc) / 1024 / float64(len(fl.Devices))
		return nil
	})
	return fl, loggers, nil
}

// devLog is one device's log bytes, as collected or as one upload's
// resulting server-side stream.
type devLog struct {
	id   string
	data []byte
}

// traceScan scans the final logs: record and byte counts, and the time
// core takes to decode them.
func traceScan(tr *tracer, v values, logs []devLog) {
	var records, size int
	v["core.scan_s"], _ = tr.span(func() error {
		for _, l := range logs {
			size += len(l.data)
			// The callback never fails, so neither does the scan.
			_ = core.ScanRecords(l.data, func(core.Record) error { records++; return nil })
		}
		return nil
	})
	v["core.records"] = float64(records)
	v["core.log_bytes"] = float64(size)
}

// traceAnalysis folds a dataset through the streaming accumulator, takes
// the study snapshot and renders the paper tables, one span each.
func traceAnalysis(tr *tracer, v values, ds *collect.Dataset) (string, error) {
	c := stream.NewCollect(analysis.Options{})
	d, err := tr.span(func() error {
		f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
		err := ds.Stream(f.Begin, f.Record)
		f.Flush()
		return err
	})
	if err != nil {
		return "", fmt.Errorf("fold dataset: %w", err)
	}
	v["stream.fold_s"] = d
	var sn *stream.TablesSnapshot
	v["analysis.snapshot_s"], _ = tr.span(func() error {
		sn = analysis.FromCollect(c).Snapshot()
		return nil
	})
	var tables string
	v["report.render_s"], _ = tr.span(func() error {
		tables = renderTables(sn)
		return nil
	})
	return tables, nil
}

// layerMinSeconds is how long each layer-alone replay repeats its input.
const layerMinSeconds = 0.3

// repeatFor calls pass until minSeconds have gone by (at least once) and
// returns the passes made and the seconds taken.
func repeatFor(minSeconds float64, pass func()) (int, float64) {
	t := time.Now()
	n := 0
	for n == 0 || since(t) < minSeconds {
		pass()
		n++
	}
	return n, since(t)
}

// traceLayersAlone replays captured inputs against each layer alone,
// in-process and without TCP: the record decoder over every stream, the
// dataset's canonical merge in upload order, the durable store's
// append-and-sync commit, and the live study's record fold.
func traceLayersAlone(tr *tracer, v values, inputs []devLog) {
	_, _ = tr.span(func() error {
		var size int
		for _, in := range inputs {
			size += len(in.data)
		}
		n, d := repeatFor(layerMinSeconds, func() {
			for _, in := range inputs {
				core.ParseRecords(in.data)
			}
		})
		v["core.parse_mb_per_s"] = float64(n*size) / 1e6 / d

		n, d = repeatFor(layerMinSeconds, func() {
			ds := collect.NewDataset()
			for _, in := range inputs {
				ds.PutMerged(in.id, in.data)
			}
		})
		v["collect.putmerged_per_s"] = float64(n*len(inputs)) / d

		n, d = repeatFor(layerMinSeconds, func() {
			st := collect.NewCrashStore(sim.NewRand(1))
			for _, in := range inputs {
				st.Append("wal", in.data)
				st.Sync("wal")
			}
		})
		v["collect.store_commit_per_s"] = float64(n*len(inputs)) / d

		var recs []devRecord
		for _, in := range inputs {
			for _, r := range core.ParseRecords(in.data) {
				recs = append(recs, devRecord{in.id, r})
			}
		}
		n, d = repeatFor(layerMinSeconds, func() {
			live := stream.NewLiveStudy(stream.Config{})
			for _, r := range recs {
				live.Observe(r.id, r.rec)
			}
		})
		v["stream.observe_per_s"] = float64(n*len(recs)) / d
		return nil
	})
}

type devRecord struct {
	id  string
	rec core.Record
}
