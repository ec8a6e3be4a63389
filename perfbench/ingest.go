package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/collect/fleet"
	"symfail/internal/core"
)

// tier is the collection tier a replay drives.
type tier interface {
	addr() string
	// layers records the tier's per-layer metrics after a replay.
	layers(v values, st replayStats)
	// close shuts the tier down.
	close() error
	// check applies the workload's correctness gate to what the closed
	// tier collected, returning the dataset and the records it holds.
	check(tf traffic, st replayStats) (*collect.Dataset, int, error)
}

// finish shuts t down and applies its gate.
func finish(t tier, tf traffic, st replayStats) (*collect.Dataset, int, error) {
	if err := t.close(); err != nil {
		return nil, 0, err
	}
	return t.check(tf, st)
}

// single is the ingest workload's tier: one durable collection server
// with the live tier wired in, the record tap feeding a LiveStudy and
// QUERY answered from it. Traced, the benchmark's own hooks time the tap
// and the query hook around the LiveStudy calls.
type single struct {
	sup  *collect.Supervisor
	ds   *collect.Dataset
	live *stream.LiveStudy

	observeNs, deliveries atomic.Int64
	hookMu                sync.Mutex
	hookMs                float64
}

func startSingle(traced bool) (tier, error) {
	s := &single{ds: collect.NewDataset(), live: stream.NewLiveStudy(stream.Config{})}
	cfg := collect.SupervisorConfig{OnRecord: s.live.Observe, Query: s.live.Query}
	if traced {
		cfg.OnRecord = func(id string, r core.Record) {
			t := time.Now()
			s.live.Observe(id, r)
			s.observeNs.Add(int64(time.Since(t)))
			s.deliveries.Add(1)
		}
		cfg.Query = func(name string, args []string) (string, error) {
			t := time.Now()
			out, err := s.live.Query(name, args)
			s.hookMu.Lock()
			s.hookMs += ms(t)
			s.hookMu.Unlock()
			return out, err
		}
	}
	sup, err := collect.NewSupervisor("127.0.0.1:0", s.ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s.sup = sup
	return s, nil
}

func (s *single) addr() string { return s.sup.Addr() }

func (s *single) layers(v values, st replayStats) {
	chunks := float64(max(st.chunks, 1))
	v["collect.wal_appends_per_chunk"] = float64(s.sup.Store().Appends()) / chunks
	v["collect.wal_syncs_per_chunk"] = float64(s.sup.Store().Syncs()) / chunks
	v["collect.compactions"] = float64(s.sup.Compactions())
	deliveries := s.deliveries.Load()
	v["stream.tap_deliveries"] = float64(deliveries)
	v["stream.tap_dup_frac"] = float64(s.live.Duplicates()) / float64(max(deliveries, 1))
	v["stream.tap_busy_frac"] = float64(s.observeNs.Load()) / 1e9 / st.seconds
	var readMs float64
	for _, r := range st.reads {
		readMs += r
	}
	s.hookMu.Lock()
	v["stream.query_hook_frac"] = s.hookMs / max(readMs, 1e-9)
	s.hookMu.Unlock()
	fmt.Printf("# stream.observe_us %.3f per delivery\n", float64(s.observeNs.Load())/1e3/float64(max(deliveries, 1)))
}

func (s *single) close() error {
	if err := s.sup.Close(); err != nil {
		return fmt.Errorf("close server: %w", err)
	}
	if err := s.sup.Err(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

func (s *single) check(tf traffic, st replayStats) (*collect.Dataset, int, error) {
	records, err := tf.checkIngest(s.ds, st)
	if err != nil {
		return nil, records, err
	}
	if live := s.live.Records(); live != records {
		return nil, records, fmt.Errorf("gate: live study holds %d records, dataset %d", live, records)
	}
	return s.ds, records, nil
}

// replicated is the replicate workload's tier: three shards behind the
// fleet's router with write-time replication R=3 and write quorum W=2, and
// no record tap or queries.
type replicated struct{ fl *fleet.Supervisor }

func startReplicated(bool) (tier, error) {
	fl, err := fleet.New(fleet.Config{Servers: 3, Replicate: 3, Quorum: 2})
	if err != nil {
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	return &replicated{fl: fl}, nil
}

func (r *replicated) addr() string { return r.fl.Addr() }

func (r *replicated) layers(v values, st replayStats) {
	v["fleet.handoffs_per_chunk"] = float64(r.fl.ServerHandoffs()) / float64(max(st.chunks, 1))
	v["fleet.handoff_failures"] = float64(r.fl.HandoffFailures())
	v["fleet.suspicions"] = float64(r.fl.Suspicions())
	v["fleet.degraded_requests"] = float64(r.fl.DegradedRequests())
	v["collect.compactions"] = float64(r.fl.Compactions())
}

func (r *replicated) close() error {
	if err := r.fl.Close(); err != nil {
		return fmt.Errorf("close fleet: %w", err)
	}
	if err := r.fl.Err(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

func (r *replicated) check(tf traffic, st replayStats) (*collect.Dataset, int, error) {
	merged := r.fl.MergedDataset()
	records, err := tf.checkReplicate(merged, st)
	return merged, records, err
}

func ingestRun(p params) (outcome, error)       { return collectRun(p, startSingle, true) }
func replicateRun(p params) (outcome, error)    { return collectRun(p, startReplicated, false) }
func ingestTraced(p params) (outcome, error)    { return collectTraced(p, startSingle, true) }
func replicateTraced(p params) (outcome, error) { return collectTraced(p, startReplicated, false) }

// collectRun captures the traffic of setupReps deployments — the run's
// seed first, then its successors — and starts the tier: the set-up, whose
// time is the median capture plus the tier start. It then replays the
// captures, mixed copy by copy, against the tier for the measuring time
// and gates what it collected.
func collectRun(p params, start func(bool) (tier, error), withQueries bool) (outcome, error) {
	out := outcome{values: values{}}
	var tf traffic
	capture, err := repeatSetup(setupReps, 0, func(i int) error {
		c, err := newCapture(paperShape, seedAt(p.seed, i), nil, nil)
		tf = append(tf, c)
		return err
	})
	if err != nil {
		return out, err
	}
	begin := time.Now()
	t, err := start(false)
	if err != nil {
		return out, err
	}
	out.values["setup_s"] = capture + since(begin)
	for _, c := range tf {
		fmt.Printf("# capture: %d chunks, %d bytes, %d devices, %.0f phone-hours, %d records per copy\n",
			len(c.uploads), c.size(), len(c.ids), c.hours, c.copyRecords())
	}

	heapBefore := liveHeapMB()
	st := replay(tf, collect.NetTransport{}, t.addr(), p.seconds, withQueries)
	out.attempted, out.failed = st.attempted, st.failed
	heapAfter := liveHeapMB()
	ds, records, err := finish(t, tf, st)
	if err != nil {
		return out, err
	}
	// Every acknowledged record carries the same share of the captures'
	// phone-hours, so the phone-hours of field data ingested per second
	// are the acknowledged records per second, printed below, times a
	// constant of the captures.
	out.values["phone_hours_per_s"] = st.recordRate() * tf.hoursPerRecord()
	// The tier's heap grows with the log data it holds, and a faster run,
	// or a seed whose phones log more, collects more; per MB held it is a
	// property of the tier, not of the run's speed or the seed.
	heldMB := 0.0
	for _, id := range ds.Devices() {
		data, _ := ds.Get(id)
		heldMB += float64(len(data)) / (1 << 20)
	}
	out.values["live_heap_mb"] = (heapAfter - heapBefore) / heldMB
	fmt.Printf("# tier heap %.1fMB holding %.1fMB of log data (%.2f phone-hours of deployments)\n",
		heapAfter-heapBefore, heldMB, float64(records)*tf.hoursPerRecord())
	fmt.Printf("# replay: %d chunks, %d reads, %d records in %.2fs (records_per_s %.1f)\n",
		st.chunks, len(st.reads), records, st.seconds, st.recordRate())
	printLatency("ack", st.acks)
	if withQueries {
		printLatency("query", st.reads)
	}
	return out, nil
}

// collectTraced runs the capture traced, then replays half the measuring
// time untraced and half under the CPU profiler with the tier's hooks
// timed, folds and renders the collected dataset, and replays the capture
// against each layer alone.
func collectTraced(p params, start func(bool) (tier, error), withQueries bool) (outcome, error) {
	out := outcome{values: newLayerValues()}
	v := out.values
	tr := newTracer()
	c, err := newCapture(paperShape, p.seed, tr, v)
	if err != nil {
		return out, err
	}
	tf := traffic{c}
	half := p.seconds / 2
	var untraced float64
	_, err = tr.span(func() error {
		t, err := start(false)
		if err != nil {
			return err
		}
		st := replay(tf, collect.NetTransport{}, t.addr(), half, withQueries)
		out.attempted += st.attempted
		out.failed += st.failed
		_, records, err := finish(t, tf, st)
		untraced = float64(records) / st.seconds
		return err
	})
	if err != nil {
		return out, err
	}

	var t tier
	var st replayStats
	var prof *profile
	_, err = tr.span(func() error {
		if t, err = start(true); err != nil {
			return err
		}
		prof, err = cpuProfile(func() error {
			st = replay(tf, collect.NetTransport{}, t.addr(), half, withQueries)
			return nil
		})
		return err
	})
	if err != nil {
		return out, err
	}
	out.attempted += st.attempted
	out.failed += st.failed
	t.layers(v, st)
	var ds *collect.Dataset
	var records int
	_, err = tr.span(func() error {
		ds, records, err = finish(t, tf, st)
		return err
	})
	if err != nil {
		return out, err
	}
	v["collect.chunks"] = float64(st.chunks)
	v["collect.bytes_sent"] = float64(st.bytes)
	v["collect.bytes_per_record"] = float64(st.bytes) / float64(max(records, 1))
	sh := prof.shares()
	for _, layer := range []string{"collect", "fleet", "stream", "net"} {
		v[layer+".cpu_frac"] = sh[layer]
	}
	v["core.parse_cpu_frac"] = prof.shareWith("symfail/internal/core.ParseRecords", "symfail/internal/collect")
	if _, err := traceAnalysis(tr, v, ds); err != nil {
		return out, err
	}
	traceLayersAlone(tr, v, c.inputs)
	traced := float64(records) / st.seconds
	v["trace.overhead_frac"] = (untraced - traced) / untraced
	v["trace.uncovered_frac"] = tr.uncovered()
	fmt.Printf("# untraced %.0f records/s, traced %.0f records/s\n", untraced, traced)
	printLatency("ack", st.acks)
	return out, nil
}
