// Command symfail runs the full reproduction: the web-forum preliminary
// study (section 4) and the 25-phone, 14-month instrumented field study
// (sections 5-6), printing every table and figure of the paper.
//
// Usage:
//
//	symfail [-seed N] [-phones N] [-months N] [-workers N] [-tcp] [-servers N] [-fleet-kill N] [-replicate R] [-quorum W] [-quick]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"time"

	"symfail"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "symfail:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("symfail", flag.ContinueOnError)
	var (
		seed       = fs.Uint64("seed", 2007, "random seed for the whole study")
		phones     = fs.Int("phones", 25, "number of instrumented phones")
		months     = fs.Int("months", 14, "observation window in months")
		workers    = fs.Int("workers", 0, "concurrent device shards (0 = GOMAXPROCS, 1 = serial; any value gives byte-identical results)")
		useTCP     = fs.Bool("tcp", false, "collect logs over a local TCP collection server")
		serverKill = fs.Int("server-kill", 0, "with -tcp: crash the collection server about every N uploads and recover it from its write-ahead log (0 = no crashes)")
		servers    = fs.Int("servers", 1, "with -tcp: shard the collection tier across N servers behind a device-hash router (1 = the single durable server)")
		fleetKill  = fs.Int("fleet-kill", 0, "with -tcp -servers N>1: about every N routed requests, kill an RNG-drawn subset of {shards, router} and recover/hand off (0 = no kills)")
		replicate  = fs.Int("replicate", 0, "with -tcp -servers N>1: write-time replication factor R — every ACK covers R durable copies (0 = fleet default 3 capped at the membership, 1 = replication off)")
		quorum     = fs.Int("quorum", 0, "with -replicate: write quorum W — the ACK needs W of the R copies WAL-synced; below W the fleet refuses writes with a retryable ERR (0 = min(2, R))")
		quick      = fs.Bool("quick", false, "shortcut: 8 phones, 4 months (for smoke runs)")
		extras     = fs.Bool("extras", false, "print beyond-the-paper analyses and the user-report extension")
		export     = fs.String("export", "", "export the collected dataset to this directory (for cmd/analyze)")
		streamMode = fs.Bool("stream", false, "print live collection progress from the streaming accumulators (and, with -tcp, the server's live record tap)")
		serveAddr  = fs.String("serve-queries", "", "after the study, keep serving the live query tier on this address (e.g. 127.0.0.1:7070) until interrupted; query it with cmd/symquery (status, mtbf, panics [n], freezerate [days])")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := symfail.DefaultFieldStudyConfig(*seed)
	cfg.Phones = *phones
	cfg.Workers = *workers
	cfg.Duration = time.Duration(*months) * phone.StudyMonth
	if *quick {
		cfg.Phones = 8
		cfg.Duration = 4 * phone.StudyMonth
		cfg.JoinWindow = phone.StudyMonth
	}
	cfg.WithUserReporter = *extras
	if *serverKill > 0 && !*useTCP {
		return fmt.Errorf("-server-kill needs -tcp (crashes are injected into the TCP collection server)")
	}
	if *servers > 1 && !*useTCP {
		return fmt.Errorf("-servers needs -tcp (the fleet shards the TCP collection tier)")
	}
	if *fleetKill > 0 {
		if !*useTCP || *servers <= 1 {
			return fmt.Errorf("-fleet-kill needs -tcp and -servers > 1 (kills are drawn over the fleet)")
		}
		if *serverKill > 0 {
			return fmt.Errorf("-fleet-kill replaces -server-kill: the fleet supervisor owns the kill schedule")
		}
	}
	if *replicate != 0 || *quorum != 0 {
		if !*useTCP || *servers <= 1 {
			return fmt.Errorf("-replicate/-quorum need -tcp and -servers > 1 (replication spans fleet shards)")
		}
		r := *replicate
		if r == 0 {
			r = 3
		}
		w := *quorum
		if w == 0 {
			if w = 2; w > r {
				w = r
			}
		}
		if r < 1 || w < 1 || w > r || r > *servers {
			return fmt.Errorf("-replicate/-quorum need 1 <= W (%d) <= R (%d) <= servers (%d)", w, r, *servers)
		}
		cfg.Replicate = r
		cfg.Quorum = w
	}
	if *useTCP {
		cfg.Servers = max(1, *servers)
		// At most one of the two kill flags is set. A uniform window around
		// N keeps kills irregular but centred on the requested rate.
		if n := max(*serverKill, *fleetKill); n > 0 {
			cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: (n + 1) / 2, KillEveryMax: n + (n+1)/2}
		}
	}

	fmt.Println("=== Section 4: high-level failure characterisation (web forums) ===")
	fmt.Println()
	forumRep := symfail.RunForumStudy(*seed)
	fmt.Println(report.Table1(forumRep))
	fmt.Println(report.Section41(forumRep))

	if *streamMode {
		cfg.Progress = func(done, total int, p stream.Peek) {
			fmt.Printf("collected %d/%d devices: %d records, %d panics, %d HL events, %d reboots\n",
				done, total, p.Records, p.Panics, p.HLEvents, p.Reboots)
		}
	}
	if *useTCP && (*streamMode || *serveAddr != "") {
		// The live study rides the collector's record tap, so it watches the
		// study live (the collector's acked ledger taps each record once,
		// across crashes and replicas) and the queries served afterwards
		// answer from it.
		cfg.LiveStudy = stream.NewLiveStudy(cfg.Analysis)
	}

	fmt.Printf("=== Sections 5-6: field study (%d phones, %d months, seed %d) ===\n\n",
		cfg.Phones, int(cfg.Duration/phone.StudyMonth), *seed)
	start := time.Now()
	study, err := symfail.RunFieldStudy(cfg)
	if err != nil {
		return err
	}
	fl := study.Collector
	if fl != nil {
		defer fl.Close()
	}
	fmt.Printf("simulated %.0f phone-hours in %v wall-clock\n\n",
		study.Fleet.ObservedHours(), time.Since(start).Round(time.Millisecond))
	switch {
	case cfg.Servers == 1 && *serverKill > 0:
		fmt.Printf("collection server: %d injected crashes, %d restarts, %d uploads served, %d WAL compactions — zero acknowledged records lost\n\n",
			fl.Crashes(), fl.Restarts(), fl.Uploads(), fl.Compactions())
	case cfg.Servers > 1:
		fmt.Printf("collection fleet: %d shards live (epoch %d), %d uploads served\n",
			fl.Servers(), fl.Epoch(), fl.Uploads())
		if *fleetKill > 0 || cfg.Adversity.ServerCrash.Enabled() {
			fmt.Printf("  %d shard crashes, %d restarts, %d router kills, %d handoffs (%d aborted, %d unplaced), %d devices migrated — zero acknowledged records lost\n",
				fl.Crashes(), fl.Restarts(), fl.RouterKills(), fl.Handoffs(), fl.HandoffAborts(), fl.HandoffFailures(), fl.Migrated())
		}
		if fl.ReplicationFactor() > 1 {
			fmt.Printf("  write quorum R=%d W=%d: %d suspicions (%d false), %d confirmed dead, %d repairs, %d below-quorum refusals over %d windows\n",
				fl.ReplicationFactor(), fl.WriteQuorum(), fl.Suspicions(), fl.FalseSuspicions(),
				fl.ConfirmedDead(), fl.Repairs(), fl.DegradedRequests(), fl.DegradedWindows())
		}
		fmt.Println()
	}
	if *streamMode && cfg.LiveStudy != nil {
		// A window as long as any study covers every record the tap
		// delivered.
		w := cfg.LiveStudy.Window(math.MaxInt32)
		fmt.Printf("live server tap: %d devices, %d records acknowledged mid-study (%d panics)\n\n",
			len(w.Devices), w.Records, w.Panics)
	}

	s := study.Study
	sn := s.Snapshot()
	fmt.Println(report.Figure2FromSnapshot(sn))
	fmt.Println(report.MTBFFromSnapshot(sn))
	fmt.Println(report.Table2FromSnapshot(sn))
	fmt.Println(report.Figure3FromSnapshot(sn))
	fmt.Println(report.Figure4Sweep(s, []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		15 * time.Minute, time.Hour, 4 * time.Hour,
	}))
	fmt.Println(report.Figure5FromSnapshot(sn))
	fmt.Println(report.Table3FromSnapshot(sn))
	fmt.Println(report.Figure6FromSnapshot(sn))
	fmt.Println(report.Table4FromSnapshot(sn))

	if *export != "" {
		if err := collect.ExportDir(study.Dataset, *export); err != nil {
			return err
		}
		fmt.Printf("dataset exported to %s (analyze with: go run ./cmd/analyze -data %s)\n\n", *export, *export)
	}
	if *extras {
		val := symfail.ValidateDetection(study)
		fmt.Println("Validation against the simulator oracle (unavailable to the original study):")
		fmt.Printf("  freeze recall %.3f, self-shutdown identification ratio %.3f, panic capture %.3f\n",
			val.FreezeRecall, val.SelfShutdownRatio, val.PanicCaptureRate)
		fmt.Printf("  (%d never-serviced phones compared)\n\n", val.PhonesCompared)
		fmt.Println(report.Extras(s))
		fmt.Println(report.Predictor(s))
		fmt.Println(report.ExpFit(s))
		fmt.Println(report.SeasonalityChart(s))
		fmt.Println(report.VersionTable(s, study.Dataset.AllRecords()))
		truthOutput := 0
		for _, d := range study.Fleet.Devices {
			truthOutput += d.Oracle().Count(phone.TruthOutputFailure)
		}
		fmt.Println(report.UserReportSummary(study.Dataset.AllRecords(), truthOutput))
	}
	if *serveAddr != "" {
		return serveQueries(*serveAddr, cfg.LiveStudy, cfg.Analysis, study)
	}
	return nil
}

// serveQueries keeps a collection server answering the QUERY verb from the
// live study until interrupted. When the study ran without a collector (no
// -tcp), the live study is rebuilt from the collected dataset — equivalent
// to having watched the study live, since the tier's acked ledger taps
// each record once.
func serveQueries(addr string, live *stream.LiveStudy, opts stream.Config, study *symfail.FieldStudy) error {
	if live == nil {
		live = stream.NewLiveStudy(opts)
		all := study.Dataset.AllRecords()
		ids := make([]string, 0, len(all))
		for id := range all {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			recs := append([]core.Record(nil), all[id]...)
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
			for _, r := range recs {
				live.Observe(id, r)
			}
		}
	}
	srv, err := collect.NewServerWith(addr, collect.NewDataset(), collect.ServerConfig{Query: live.Query})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("serving live queries on %s (%d devices, %d records; ^C to stop)\n",
		srv.Addr(), live.Devices(), live.Records())
	fmt.Printf("  try: go run ./cmd/symquery -addr %s mtbf\n", srv.Addr())
	fmt.Printf("       go run ./cmd/symquery -addr %s panics 3\n", srv.Addr())
	fmt.Printf("       go run ./cmd/symquery -addr %s freezerate 30\n", srv.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	return nil
}
