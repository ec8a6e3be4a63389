package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"symfail"
	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/report"
)

// shape is a deployment's size: how many phones, observed for how long,
// enrolling over what window.
type shape struct {
	phones     int
	duration   time.Duration
	joinWindow time.Duration
}

// paperShape is the paper's deployment: 25 phones, 14 months, enrolment
// staggered over 9 months. Few long-lived devices: per-event work dominates.
var paperShape = shape{phones: 25, duration: phone.StudyDuration, joinWindow: 9 * phone.StudyMonth}

func (s shape) studyConfig(seed uint64) symfail.FieldStudyConfig {
	return symfail.FieldStudyConfig{
		Seed: seed, Phones: s.phones, Duration: s.duration, JoinWindow: s.joinWindow, Workers: workers,
	}
}

// fleetConfig is the phone.FleetConfig RunFieldStudy builds for the same
// study configuration.
func (s shape) fleetConfig(seed uint64) phone.FleetConfig {
	return phone.FleetConfig{
		Seed: seed, Phones: s.phones, Duration: s.duration, JoinWindow: s.joinWindow, Workers: workers,
	}
}

// setupReps is how many times a run at least repeats its set-up; setup_s
// is the median, so one slow repetition does not move it.
const setupReps = 3

// buildFleet constructs the fleet and installs the paper's logger (and
// whatever attach adds) on every phone: the set-up every study pays before
// its first simulated event.
func buildFleet(s shape, seed uint64, attach func(*phone.Device, *core.Logger)) *phone.Fleet {
	fl := phone.NewFleet(s.fleetConfig(seed))
	for _, d := range fl.Devices {
		l := core.Install(d, core.Config{})
		if attach != nil {
			attach(d, l)
		}
	}
	return fl
}

func paperRun(p params) (outcome, error)    { return studyRun(paperShape, p) }
func paperTraced(p params) (outcome, error) { return studyTraced(paperShape, p) }

// studyRun repeats the whole study — fleet construction, the observation
// window, collection, streaming analysis and the rendered paper tables —
// over successive deployments until the measuring time is used up, gates
// each, and reports the rate over all the studies together, so every
// deployment counts by its size, and the median live heap.
func studyRun(s shape, p params) (outcome, error) {
	out := outcome{values: values{}}
	setup, err := repeatSetup(setupReps, 0.5, func(i int) error {
		buildFleet(s, seedAt(p.seed, i), nil)
		return nil
	})
	if err != nil {
		return out, err
	}
	out.values["setup_s"] = setup

	var hours, records, seconds float64
	var heaps []float64
	start := time.Now()
	for i := 0; i == 0 || since(start) < p.seconds; i++ {
		out.attempted++
		t := time.Now()
		fs, err := symfail.RunFieldStudy(s.studyConfig(seedAt(p.seed, i)))
		if err != nil {
			out.failed++
			return out, fmt.Errorf("study %d: %w", i, err)
		}
		tables := renderTables(fs.Study.Snapshot())
		dt := since(t)
		if err := checkStudy(fs.Dataset, fs.Study.Options(), tables); err != nil {
			return out, fmt.Errorf("study %d: %w", i, err)
		}
		n := countRecords(fs.Dataset)
		h := fs.Fleet.ObservedHours()
		heaps = append(heaps, liveHeapMB())
		runtime.KeepAlive(fs)
		fmt.Printf("# study %d: %.0f phone-hours, %d records in %.3fs, live heap %.1fMB\n", i, h, n, dt, heaps[i])
		hours += h
		records += float64(n)
		seconds += dt
	}
	out.values["phone_hours_per_s"] = hours / seconds
	fmt.Printf("# records_per_s %.1f\n", records/seconds)
	out.values["live_heap_mb"] = median(heaps)
	return out, nil
}

// renderTables renders every paper table and figure the streaming snapshot
// feeds, in a fixed order.
func renderTables(sn *stream.TablesSnapshot) string {
	return strings.Join([]string{
		report.Figure2FromSnapshot(sn),
		report.MTBFFromSnapshot(sn),
		report.Table2FromSnapshot(sn),
		report.Figure3FromSnapshot(sn),
		report.Figure5FromSnapshot(sn),
		report.Table3FromSnapshot(sn),
		report.Figure6FromSnapshot(sn),
		report.Table4FromSnapshot(sn),
	}, "\n")
}

// checkStudy is the study gate: the streamed tables must render
// byte-identical to a batch re-analysis (analysis.New) of the same dataset.
func checkStudy(ds *collect.Dataset, opts analysis.Options, streamed string) error {
	batch := renderTables(analysis.New(ds.AllRecords(), opts).Snapshot())
	if batch != streamed {
		return fmt.Errorf("gate: streamed tables differ from batch re-analysis of the dataset")
	}
	return nil
}

// countRecords counts the records in a dataset.
func countRecords(ds *collect.Dataset) int {
	records := 0
	for _, id := range ds.Devices() {
		data, _ := ds.Get(id)
		// The callback never fails, so neither does the scan.
		_ = core.ScanRecords(data, func(core.Record) error { records++; return nil })
	}
	return records
}

// studyTraced runs the study twice: once untraced through RunFieldStudy,
// and once composed layer by layer from the same public calls, each layer
// in its own span. The composition must give the same dataset and tables;
// the difference in phone-hours/s is the tracing overhead.
func studyTraced(s shape, p params) (outcome, error) {
	out := outcome{attempted: 1, values: newLayerValues()}
	v := out.values
	t := time.Now()
	ref, err := symfail.RunFieldStudy(s.studyConfig(p.seed))
	if err != nil {
		out.failed++
		return out, fmt.Errorf("untraced study: %w", err)
	}
	refTables := renderTables(ref.Study.Snapshot())
	untraced := ref.Fleet.ObservedHours() / since(t)
	refCRC := ref.Dataset.CRC32C()

	tr := newTracer()
	fl, loggers, err := traceFleet(tr, v, s, p.seed, nil)
	if err != nil {
		out.failed++
		return out, err
	}
	ds := collect.NewDataset()
	logs := make([]devLog, len(loggers))
	_, _ = tr.span(func() error {
		for i, l := range loggers {
			logs[i] = devLog{id: fl.Devices[i].ID(), data: l.LogBytes()}
			ds.Put(logs[i].id, logs[i].data)
		}
		return nil
	})
	traceScan(tr, v, logs)
	tables, err := traceAnalysis(tr, v, ds)
	if err != nil {
		return out, err
	}
	traced := fl.ObservedHours() / since(tr.start)
	if err := sameStudy(ds, tables, refCRC, refTables); err != nil {
		return out, err
	}
	traceLayersAlone(tr, v, logs)
	v["trace.overhead_frac"] = (untraced - traced) / untraced
	v["trace.uncovered_frac"] = tr.uncovered()
	fmt.Printf("# untraced %.1f phone-h/s, traced %.1f phone-h/s\n", untraced, traced)
	return out, nil
}

// sameStudy is the traced run's gate: the layer-by-layer composition must
// collect the dataset (by CRC-32C) and render the tables RunFieldStudy does.
func sameStudy(ds *collect.Dataset, tables string, refCRC uint32, refTables string) error {
	if crc := ds.CRC32C(); crc != refCRC {
		return fmt.Errorf("gate: traced dataset CRC32C %08x, RunFieldStudy %08x", crc, refCRC)
	}
	if tables != refTables {
		return fmt.Errorf("gate: traced tables differ from RunFieldStudy's")
	}
	return nil
}
