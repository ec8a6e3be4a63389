// Command analyze re-runs the paper's analysis pipeline over a previously
// exported dataset (cmd/symfail -export <dir>), without re-simulating:
// collect once, analyse many times — with different thresholds, windows,
// or output formats.
//
// Usage:
//
//	analyze -data <dir> [-threshold 360s] [-window 5m] [-json] [-stream]
//
// With -stream the dataset is analysed in a single incremental pass through
// the composite streaming accumulator (internal/analysis/stream): StreamDir
// reads one device's log at a time into a sorting Feeder, so peak memory is
// O(one device + bins) instead of O(dataset). Both paths render the same
// stream.TablesSnapshot, so the tables and the -json summary are
// byte-identical; only the batch path prints the Extras, which need the full
// event set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable output of -json.
type summary struct {
	Devices        int                `json:"devices"`
	ObservedHours  float64            `json:"observedHours"`
	Freezes        int                `json:"freezes"`
	SelfShutdowns  int                `json:"selfShutdowns"`
	MTBFrHours     float64            `json:"mtbfrHours"`
	MTBSHours      float64            `json:"mtbsHours"`
	Panics         int                `json:"panics"`
	RelatedPercent float64            `json:"relatedPercent"`
	PanicsInBursts float64            `json:"panicsInBurstsPercent"`
	PanicShares    map[string]float64 `json:"panicShares"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		dataDir    = fs.String("data", "", "directory with an exported dataset (required)")
		threshold  = fs.Duration("threshold", 360*time.Second, "self-shutdown threshold")
		window     = fs.Duration("window", 5*time.Minute, "panic/HL coalescence window")
		asJSON     = fs.Bool("json", false, "emit a machine-readable summary instead of the tables")
		streamMode = fs.Bool("stream", false, "single-pass streaming analysis: one device's log in memory at a time")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	opts := analysis.Options{
		SelfShutdownThreshold: *threshold,
		CoalescenceWindow:     *window,
	}
	var (
		sn     *stream.TablesSnapshot
		study  *analysis.Study
		source = *dataDir
	)
	if *streamMode {
		acc := stream.NewTables(opts)
		f := &stream.Feeder{AddDevice: acc.AddDevice, Observe: acc.Observe}
		if err := collect.StreamDir(*dataDir, f.Begin, f.Record); err != nil {
			return err
		}
		f.Flush()
		sn, source = acc.Tables(), source+" (streamed)"
	} else {
		ds, err := collect.ImportDir(*dataDir)
		if err != nil {
			return err
		}
		study = analysis.New(ds.AllRecords(), opts)
		sn = study.Snapshot()
	}

	if *asJSON {
		sum := summary{
			Devices:        len(sn.Devices),
			ObservedHours:  sn.MTBF.ObservedHours,
			Freezes:        sn.MTBF.Freezes,
			SelfShutdowns:  sn.MTBF.SelfShutdowns,
			MTBFrHours:     sn.MTBF.MTBFrHours,
			MTBSHours:      sn.MTBF.MTBSHours,
			Panics:         sn.Coalescence.TotalPanics,
			RelatedPercent: sn.Coalescence.RelatedPercent,
			PanicsInBursts: 100 * sn.Bursts.PanicsInBursts,
			PanicShares:    make(map[string]float64),
		}
		for _, row := range sn.PanicTable {
			sum.PanicShares[row.Key] = row.Percent
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}

	fmt.Printf("dataset: %d devices from %s\n\n", len(sn.Devices), source)
	fmt.Println(report.Figure2FromSnapshot(sn))
	fmt.Println(report.MTBFFromSnapshot(sn))
	fmt.Println(report.Table2FromSnapshot(sn))
	fmt.Println(report.Figure3FromSnapshot(sn))
	fmt.Println(report.Figure5FromSnapshot(sn))
	fmt.Println(report.Table3FromSnapshot(sn))
	fmt.Println(report.Figure6FromSnapshot(sn))
	fmt.Println(report.Table4FromSnapshot(sn))
	if study != nil {
		// The beyond-the-paper extras need the full event set: batch only.
		fmt.Println(report.Extras(study))
	}
	return nil
}
