// Package symfail reproduces "How Do Mobile Phones Fail? A Failure Data
// Analysis of Symbian OS Smart Phones" (Cinque, Cotroneo, Kalbarczyk, Iyer —
// DSN 2007) end to end:
//
//   - a behavioural Symbian OS simulator (internal/symbos) and phone/user
//     model (internal/phone) stand in for the 25 physical handsets;
//   - the paper's failure data logger (internal/core) runs as a daemon on
//     every simulated phone;
//   - logs travel to a collection server (internal/collect);
//   - the analysis pipeline (internal/analysis) regenerates every table and
//     figure of section 6, and the forum-study pipeline (internal/forum)
//     regenerates section 4;
//   - internal/report renders them as text.
//
// This package is the public face: RunFieldStudy runs the instrumented
// fleet and returns the analysed study; RunForumStudy runs the web-forum
// pipeline. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package symfail

import (
	"fmt"
	"sync"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/collect/fleet"
	"symfail/internal/core"
	"symfail/internal/forum"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// FieldStudyConfig parameterises a full instrumented deployment.
type FieldStudyConfig struct {
	// Seed makes the whole study reproducible.
	Seed uint64
	// Phones is the fleet size (default 25, the paper's deployment).
	Phones int
	// Workers bounds how many device shards simulate concurrently: 0 means
	// GOMAXPROCS, 1 forces the fully serial run. Any worker count produces
	// byte-identical studies — fleet construction is always serial, every
	// device owns a private engine and RNG streams, and collection merges
	// are canonical and order-independent — so Workers trades nothing but
	// wall-clock time. See DESIGN.md §9.
	Workers int
	// Duration is the observation window (default 14 months).
	Duration time.Duration
	// JoinWindow staggers enrolment (default 9 months).
	JoinWindow time.Duration
	// Device optionally overrides the per-device calibration.
	Device func(seed uint64) phone.Config
	// Logger tunes the on-phone logger.
	Logger core.Config
	// Analysis tunes the pipeline thresholds (paper defaults when zero).
	Analysis analysis.Options
	// UploadEvery is the simulated-time cadence of the periodic on-device
	// uploader attached when a collector runs (Servers >= 1; default
	// weekly). Periodic uploads are what preserve the study data across
	// service-visit master resets: reading only the final flash loses
	// everything logged before a reset.
	UploadEvery time.Duration
	// Servers is the one collection-topology switch. 0 reads every log
	// directly off the simulated flash, in process. 1 uploads over TCP to
	// one durable collection server; >1 shards the collection fleet behind
	// a device-hash router. Either way the collector is returned on
	// FieldStudy.Collector and the study is analysed from the dataset that
	// travelled over the wire.
	Servers int
	// Replicate / Quorum, with Servers > 1, set the write-time replication
	// factor R and write quorum W (fleet.Config.Replicate / Quorum). 0
	// takes the fleet defaults (R=3 capped at the live membership,
	// W=min(2,R)); Replicate=1 switches write-time replication off — the
	// pre-quorum fleet, byte-exact.
	Replicate int
	Quorum    int
	// WithUserReporter additionally installs the output-failure reporting
	// extension (core.UserReporter) on every phone.
	WithUserReporter bool
	// WithDExc additionally installs the panic-only D_EXC baseline
	// collector on every phone; its logs land in BaselineDataset.
	WithDExc bool
	// Adversity arms the deterministic fault-injection layer (flash and
	// network). The zero value runs the pre-adversity study bit for bit.
	Adversity AdversityConfig
	// Progress, when set, is called after each device's log folds into the
	// study-wide streaming accumulator during final collection: done devices
	// out of total, plus a Peek at the running event counts. Calls are
	// serialised under a mutex; with parallel workers the completion order
	// is scheduling-dependent, but the final (done == total) Peek is not.
	Progress func(done, total int, p stream.Peek)
	// LiveStudy, when set with Servers >= 1, is the collector's live
	// record tap consumer (fleet.Config.OnRecord): it sees each record
	// once, as it is first committed mid-study (the fleet's acked ledger
	// is the dedup stage). Ignored when Servers is 0.
	LiveStudy *stream.LiveStudy
}

// AdversityConfig calibrates the fault-injection layer. Everything is a
// pure function of the study seed: the same seed and config produce the
// same faults, byte for byte.
type AdversityConfig struct {
	// Flash arms the flash fault model on every phone (torn writes on
	// battery pull, bit rot, flash-full quota).
	Flash phone.FlashFaults
	// Net wraps every phone's uploader transport in deterministic network
	// adversity (refused connections, mid-transfer drops, payload
	// corruption, lost acknowledgements).
	Net collect.NetFaults
	// RetryBase/RetryMax arm the uploader's exponential backoff between
	// periodic ticks (zero RetryBase leaves retrying to the next tick).
	RetryBase, RetryMax time.Duration
	// ServerCrash injects collection-server crashes: the supervisor kills
	// the server (with Servers > 1, an RNG-drawn subset of shards and
	// router) at drawn crashpoints mid-study and restarts it from its
	// write-ahead log (see collect.Supervisor). Needs Servers >= 1.
	ServerCrash collect.CrashFaults
	// ServerCompactWAL overrides the WAL size that triggers server
	// snapshot compaction (zero keeps collect.DefaultCompactEvery); small
	// values make short chaos runs exercise the compaction crashpoints.
	ServerCompactWAL int
	// FleetJoinAfter / FleetLeaveAfter, with Servers > 1, respectively add
	// and retire one shard after that many routed requests — a mid-study
	// scale-up/scale-down with live rebalancing (fleet.Config.JoinAfter /
	// LeaveAfter).
	FleetJoinAfter  int
	FleetLeaveAfter int
}

// Enabled reports whether any adversity is armed.
func (c AdversityConfig) Enabled() bool {
	return c.Flash.Enabled() || c.Net.Enabled() || c.ServerCrash.Enabled()
}

// DefaultFieldStudyConfig mirrors the paper's deployment.
func DefaultFieldStudyConfig(seed uint64) FieldStudyConfig {
	return FieldStudyConfig{
		Seed:       seed,
		Phones:     25,
		Duration:   phone.StudyDuration,
		JoinWindow: 9 * phone.StudyMonth,
	}
}

// FieldStudy is a completed deployment: the simulated fleet, its loggers,
// the collected dataset and the analysed study.
type FieldStudy struct {
	Fleet   *phone.Fleet
	Loggers []*core.Logger
	Dataset *collect.Dataset
	Study   *analysis.Study

	// Reporters holds the user-report extensions (nil entries when the
	// extension was not enabled).
	Reporters []*core.UserReporter
	// BaselineDataset holds the D_EXC panic-only logs when enabled.
	BaselineDataset *collect.Dataset
	// Uploaders holds the per-device periodic uploaders (aligned with
	// Fleet.Devices) when a collector ran (Servers >= 1); nil otherwise.
	// Their counters — retries, resumes, reconnects, bytes retransmitted —
	// are the client-side ledger of what the injected adversity cost.
	Uploaders []*collect.Uploader
	// Collector is the collection tier the logs travelled through when
	// Servers >= 1 (nil otherwise). The caller owns it and must Close it.
	Collector *fleet.Supervisor
}

// RunFieldStudy builds the fleet, installs the logger on every phone, runs
// the observation window, collects the logs and analyses them. cfg.Servers
// picks the collection topology. With a collector (Servers >= 1) every
// acknowledged verb is write-ahead-logged on a crash-faithful store before
// the ACK reaches the wire, and cfg.Adversity.ServerCrash kills servers at
// drawn crashpoints mid-study; with Workers:1 the whole crash/recover
// history is deterministic in the seed. Whatever dies, the collected
// dataset holds every acknowledged record exactly once.
func RunFieldStudy(cfg FieldStudyConfig) (*FieldStudy, error) {
	if cfg.Phones <= 0 {
		cfg.Phones = 25
	}
	if cfg.Duration <= 0 {
		cfg.Duration = phone.StudyDuration
	}
	if cfg.JoinWindow < 0 {
		return nil, fmt.Errorf("symfail: negative join window")
	}
	if cfg.Servers <= 0 {
		return runFieldStudy(cfg, nil)
	}
	if cfg.UploadEvery <= 0 {
		cfg.UploadEvery = 7 * 24 * time.Hour
	}
	fcfg := fleet.Config{
		Servers:      cfg.Servers,
		Crash:        cfg.Adversity.ServerCrash,
		CompactEvery: cfg.Adversity.ServerCompactWAL,
		Rng:          sim.NewRand(cfg.Seed ^ collectorSeedSalt),
		JoinAfter:    cfg.Adversity.FleetJoinAfter,
		LeaveAfter:   cfg.Adversity.FleetLeaveAfter,
		Replicate:    cfg.Replicate,
		Quorum:       cfg.Quorum,
		BeatRng:      sim.NewRand(cfg.Seed ^ beatSeedSalt),
	}
	if cfg.LiveStudy != nil {
		fcfg.OnRecord = cfg.LiveStudy.Observe
	}
	col, err := fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	fs, err := runFieldStudy(cfg, col)
	if err != nil {
		_ = col.Close()
		return nil, err
	}
	return fs, nil
}

// runFieldStudy is RunFieldStudy past the defaults: it runs the fleet and
// collects each log either straight off the simulated flash (col == nil)
// or through the collector, whose merged dataset is then analysed.
func runFieldStudy(cfg FieldStudyConfig, col *fleet.Supervisor) (*FieldStudy, error) {
	fleet := phone.NewFleet(phone.FleetConfig{
		Seed:       cfg.Seed,
		Phones:     cfg.Phones,
		Duration:   cfg.Duration,
		JoinWindow: cfg.JoinWindow,
		Device:     cfg.Device,
		Flash:      cfg.Adversity.Flash,
		Workers:    cfg.Workers,
	})
	loggers := make([]*core.Logger, 0, len(fleet.Devices))
	var reporters []*core.UserReporter
	var baselines []*core.DExc
	var uploaders []*collect.Uploader
	for _, d := range fleet.Devices {
		l := core.Install(d, cfg.Logger)
		loggers = append(loggers, l)
		if cfg.WithUserReporter {
			reporters = append(reporters, core.InstallUserReporter(d, core.UserReporterConfig{}))
		}
		if cfg.WithDExc {
			baselines = append(baselines, core.InstallDExc(d, ""))
		}
		if col != nil {
			ucfg := collect.UploaderConfig{
				Every:     cfg.UploadEvery,
				RetryBase: cfg.Adversity.RetryBase,
				RetryMax:  cfg.Adversity.RetryMax,
			}
			// Kill and handoff windows are healed in host time
			// (milliseconds) below the simulated uploader, whose shortest
			// retry is half an hour of simulated time: a window crossing a
			// master reset would otherwise destroy records the kill-free
			// study delivers. Only the serial single server (Servers 1,
			// Workers 1) keeps the plain transport: its request count feeds
			// a crash schedule that is deterministic in the seed and pinned
			// by the server-crash golden, and the kills it draws surface to
			// the uploader. With parallel workers the kills land on
			// scheduling-dependent requests, so they must stay invisible.
			// Injected network faults ride above the retry layer either way.
			var inner collect.Transport
			if cfg.Servers > 1 || cfg.Workers != 1 {
				inner = collect.RetryNetTransport{}
			}
			if cfg.Adversity.Net.Enabled() {
				// One Split child drives the injected faults, another the
				// retry jitter; both are derived here, in device order, so
				// the whole adversity run is a function of the seed.
				ucfg.Transport = collect.NewFaultyTransport(inner, cfg.Adversity.Net, d.SplitRand())
				ucfg.Rng = d.SplitRand()
			} else {
				ucfg.Transport = inner
			}
			uploaders = append(uploaders, collect.AttachUploaderWith(d, col.Addr(), l.Config().LogPath, ucfg))
		}
	}
	if err := fleet.Run(); err != nil {
		return nil, fmt.Errorf("symfail: run fleet: %w", err)
	}

	// Final collection is sharded like the run itself: each device's log
	// travels independently, and both Dataset.Put and the server's chunk
	// merge are canonical per device, so collection order cannot change the
	// collected bytes. Each shard also folds its device into a private
	// streaming accumulator and merges it into the study-wide one — device
	// sets are disjoint, so the merge order cannot change the analysis
	// (DESIGN.md §11) — which is what gives Progress its online view and
	// the in-process path its single-pass Study.
	ds := collect.NewDataset()
	total := len(loggers)
	agg := stream.NewCollect(cfg.Analysis)
	var (
		aggMu sync.Mutex
		done  int
	)
	err := sim.RunShards(len(loggers), cfg.Workers, func(i int) error {
		id := fleet.Devices[i].ID()
		data := loggers[i].LogBytes()
		if col == nil {
			ds.Put(id, data)
		} else {
			if err := uploadFinal(col.Addr(), id, data); err != nil {
				return err
			}
			if cfg.Progress == nil {
				return nil // the Study is re-analysed from the collector
			}
		}
		part := stream.NewCollect(cfg.Analysis)
		feedLog(part, id, data)
		aggMu.Lock()
		defer aggMu.Unlock()
		if err := agg.Merge(part); err != nil {
			return err
		}
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total, agg.Peek())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &FieldStudy{
		Fleet: fleet, Loggers: loggers, Dataset: ds,
		Reporters: reporters, Uploaders: uploaders, Collector: col,
	}
	if col == nil {
		out.Study = analysis.FromCollect(agg)
	} else {
		if err := col.Err(); err != nil {
			return nil, err
		}
		// Analyse the dataset that actually travelled over the wire — the
		// union over every shard, live and departed, with the canonical
		// merge deduplicating replicas — streaming it one device at a time.
		out.Dataset = col.MergedDataset()
		c, err := collectFromDataset(out.Dataset, cfg.Analysis)
		if err != nil {
			return nil, err
		}
		out.Study = analysis.FromCollect(c)
	}
	if cfg.WithDExc {
		out.BaselineDataset = collect.NewDataset()
		for i, x := range baselines {
			out.BaselineDataset.Put(fleet.Devices[i].ID(), x.LogBytes())
		}
	}
	return out, nil
}

// feedLog streams one device's raw log bytes into a collect accumulator
// through a sorting Feeder (the cursor input contract), with only this one
// device's records materialised.
func feedLog(c *stream.Collect, id string, data []byte) {
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	_ = f.Begin(id)
	_ = core.ScanRecords(data, func(r core.Record) error { return f.Record(id, r) })
	f.Flush()
}

// collectFromDataset rebuilds the study-wide accumulator from a collected
// dataset one device at a time: Dataset.Stream keeps a single device's log
// bytes in memory, and the Feeder's per-device record buffer is the only
// other allocation that scales with the data.
func collectFromDataset(ds *collect.Dataset, opts analysis.Options) (*stream.Collect, error) {
	c := stream.NewCollect(opts)
	f := &stream.Feeder{AddDevice: c.AddDevice, Observe: c.Observe}
	err := ds.Stream(f.Begin, f.Record)
	f.Flush()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// uploadFinal ships a device's end-of-study log as one CHUNK at offset 0,
// which replaces the device's server-side stream with the whole log and
// is acknowledged with its length. It rides out collector restarts: an
// injected server crash can land mid-upload, in which case the client
// sees a dead connection, the supervisor replays the WAL and rebinds, and
// the retry re-sends the payload — harmless, because the server's merge
// is idempotent. A quorum-replicated fleet can also refuse
// the write outright while too many shards are suspected mid-restart;
// those retryable ERRs get a larger budget, because a below-quorum window
// clears on the fleet's own heartbeat cadence rather than a single shard
// rebind. The FIN afterwards retires the device's chunk stream on the
// server (best-effort bookkeeping; the data itself is already merged and
// acknowledged).
func uploadFinal(addr, id string, data []byte) error {
	var err error
	failures := 0 // attempts that failed other than below quorum
	for attempt := 0; attempt < 600; attempt++ {
		if attempt > 0 {
			// Host-time pause: the collector is a real TCP server
			// restarting in host time, not simulated time. The pause never
			// influences simulation state — the fleet has already run.
			pause := time.Duration(attempt*attempt) * time.Millisecond
			if pause > 10*time.Millisecond {
				pause = 10 * time.Millisecond
			}
			time.Sleep(pause)
		}
		var acked int
		if acked, err = (collect.NetTransport{}).UploadChunk(addr, id, 0, data); err == nil {
			if acked == len(data) {
				_ = collect.Fin(addr, id)
				return nil
			}
			err = fmt.Errorf("acked %d of %d bytes", acked, len(data))
		}
		if collect.IsBelowQuorum(err) {
			continue // clears on the fleet's heartbeat cadence: full budget
		}
		// Fail fast on protocol rejections — a parsed ERR is a real answer.
		// Transport-level windows (dead connection, unreachable shard) get
		// a generous budget: on a loaded single-CPU host a restarting
		// shard's WAL replay can easily outlive the first few capped pauses.
		// Below-quorum refusals do not spend it: a long one must not leave
		// the window that follows it with no budget.
		failures++
		if failures > 8 && !collect.IsTransient(err) {
			break
		}
		if failures > 120 {
			break
		}
	}
	return fmt.Errorf("symfail: upload %s: %w", id, err)
}

// collectorSeedSalt derives the collection tier's RNG stream from the
// study seed while keeping it independent of every device stream: killing
// the server more or less often must never change what happens on a phone.
const collectorSeedSalt = 0x636f6c6c656374

// beatSeedSalt derives the fleet heartbeat jitter stream — independent of
// both the device streams and the collection tier's kill/crashpoint stream,
// so beat cadence can never perturb either.
const beatSeedSalt = 0x62656174

// RunForumStudy generates the synthetic web-forum corpus and runs the
// section 4 pipeline over it.
func RunForumStudy(seed uint64) *forum.Report {
	return forum.Analyze(forum.Generate(forum.DefaultGeneratorConfig(seed)))
}

// ForumCorpus exposes the raw synthetic corpus for the examples.
func ForumCorpus(seed uint64) []forum.Post {
	return forum.Generate(forum.DefaultGeneratorConfig(seed))
}
