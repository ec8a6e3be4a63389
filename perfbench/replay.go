package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
)

// queries are the live tier's views. On the ingest workload a replay
// client refreshes all of them — a monitoring dashboard showing each view —
// whenever its copy of the deployment moves into a new upload round: the
// live tier changes only as a round's uploads land, so a dashboard polling
// faster reads nothing new, and reads scale with the replayed traffic.
var queries = []string{"status", "mtbf", "panics", "freezerate"}

// replayStats is one closed-loop replay's outcome.
type replayStats struct {
	seconds           float64
	attempted, failed int
	chunks, bytes     int
	acks, reads       []float64 // latencies, ms
	// copies[k] is what the replay left on the tier for copy k of the
	// deployment.
	copies map[int]*copyState
	// records counts the distinct records the acknowledged chunks added.
	records int
}

// copyState is one replayed copy of the deployment: acked[d] is how many of
// device d's uploads were acknowledged, each ACK carrying offset+len, and
// dropped[d] is set once one of them failed — the device's later uploads
// in the copy are then skipped, as their offsets would no longer be
// contiguous.
type copyState struct {
	acked   []int
	dropped []bool
}

// recordRate returns the distinct records acknowledged per host second of
// the replay. It is taken over the whole replay, not as a median of short
// windows: a copy of the deployment starts with short streams, cheap to
// merge, and ends with long ones, so short windows would sample that cycle.
func (st replayStats) recordRate() float64 { return float64(st.records) / st.seconds }

// traffic is what a collection run replays: the captures of one or more
// deployments. Copy k of the replay is deployment k mod len(traffic), so
// a run that replays several copies mixes the deployments and its figures
// depend less on any single one.
type traffic []*capture

// of returns the deployment replay copy k replays.
func (tf traffic) of(k int) *capture { return tf[k%len(tf)] }

// hoursPerRecord is the phone-hours a record carries over one copy of
// every deployment.
func (tf traffic) hoursPerRecord() float64 {
	hours, records := 0.0, 0
	for _, c := range tf {
		hours += c.hours
		records += c.copyRecords()
	}
	return hours / float64(records)
}

// replay sends the traffic to addr through tp from `workers` closed-loop
// clients for the given host seconds. Client w replays copies w,
// w+workers, ... of the deployments, each in deployment order and under
// its own device IDs: the clients own disjoint devices, so every device's
// offsets arrive in order. With withQueries a client also reads the live
// tier at each new upload round. A failed operation is counted and the
// client carries on, so failed/attempted is the tier's refusal rate.
func replay(tf traffic, tp collect.Transport, addr string, seconds float64, withQueries bool) replayStats {
	parts := make([]replayStats, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = replayClient(tf, tp, addr, w, start, seconds, withQueries)
		}()
	}
	wg.Wait()
	st := replayStats{seconds: since(start), copies: map[int]*copyState{}}
	for _, p := range parts {
		st.attempted += p.attempted
		st.failed += p.failed
		st.chunks += p.chunks
		st.bytes += p.bytes
		st.acks = append(st.acks, p.acks...)
		st.reads = append(st.reads, p.reads...)
		st.records += p.records
		for k, cs := range p.copies {
			st.copies[k] = cs
		}
	}
	return st
}

func replayClient(tf traffic, tp collect.Transport, addr string, w int, start time.Time, seconds float64, withQueries bool) replayStats {
	st := replayStats{copies: map[int]*copyState{}}
	// Only a client's first failure of each kind is printed.
	chunkFailed, queryFailed := false, false
	for k := w; ; k += workers {
		c := tf.of(k)
		cs := &copyState{acked: make([]int, len(c.ids)), dropped: make([]bool, len(c.ids))}
		st.copies[k] = cs
		for i, u := range c.uploads {
			if since(start) >= seconds {
				return st
			}
			if withQueries && c.newRound(i) {
				for _, q := range queries {
					st.attempted++
					t := time.Now()
					if _, err := collect.Query(addr, q); err != nil {
						st.failed++
						if !queryFailed {
							fmt.Printf("# query %s: %v\n", q, err)
							queryFailed = true
						}
						continue
					}
					st.reads = append(st.reads, ms(t))
				}
			}
			if cs.dropped[u.dev] {
				continue
			}
			id := c.replicaID(u.dev, k)
			st.attempted++
			t := time.Now()
			n, err := tp.UploadChunk(addr, id, u.offset, u.data)
			st.acks = append(st.acks, ms(t))
			if err != nil || n != u.offset+len(u.data) {
				st.failed++
				cs.dropped[u.dev] = true
				if !chunkFailed {
					fmt.Printf("# chunk %s@%d: ack %d, err %v\n", id, u.offset, n, err)
					chunkFailed = true
				}
				continue
			}
			j := cs.acked[u.dev]
			st.records += c.recs[u.dev][j]
			if j > 0 {
				st.records -= c.recs[u.dev][j-1]
			}
			cs.acked[u.dev]++
			st.chunks++
			st.bytes += len(u.data)
		}
	}
}

// ms returns the host milliseconds elapsed since t.
func ms(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// state is one dataset state a device may be in: its bytes (nil when the
// tier need not hold the device at all) and their record count.
type state struct {
	data    []byte
	records int
}

// expected walks every device copy the replay touched, in a fixed order,
// with its ID and the states the tier may hold it in: the in-process
// PutMerged reference after its acknowledged uploads, and for a device
// whose upload failed, also after that upload, which the tier may have
// committed before the failure.
func (tf traffic) expected(st replayStats, fn func(id string, states []state) error) error {
	copies := make([]int, 0, len(st.copies))
	for k := range st.copies {
		copies = append(copies, k)
	}
	sort.Ints(copies)
	for _, k := range copies {
		c, cs := tf.of(k), st.copies[k]
		for d, n := range cs.acked {
			var states []state
			if n > 0 {
				states = append(states, state{c.refs[d][n-1], c.recs[d][n-1]})
			}
			if cs.dropped[d] {
				if n == 0 {
					states = append(states, state{})
				}
				states = append(states, state{c.refs[d][n], c.recs[d][n]})
			}
			if len(states) == 0 {
				continue
			}
			if err := fn(c.replicaID(d, k), states); err != nil {
				return err
			}
		}
	}
	return nil
}

// holds reports whether a dataset lookup (got, ok) is the state want, nil
// meaning the device is absent.
func holds(got []byte, ok bool, want []byte) bool {
	if want == nil {
		return !ok
	}
	return ok && bytes.Equal(got, want)
}

// checkIngest is the single-server gate: every device copy the replay
// touched must hold exactly one of its expected states' bytes, and no
// other device may be present. It returns the records the server holds.
func (tf traffic) checkIngest(ds *collect.Dataset, st replayStats) (int, error) {
	records, devices := 0, 0
	err := tf.expected(st, func(id string, states []state) error {
		got, ok := ds.Get(id)
		for _, s := range states {
			if holds(got, ok, s.data) {
				records += s.records
				if ok {
					devices++
				}
				return nil
			}
		}
		return fmt.Errorf("gate: server bytes of %s differ from the PutMerged reference (%d vs %d bytes)", id, len(got), len(states[0].data))
	})
	if err == nil && len(ds.Devices()) != devices {
		err = fmt.Errorf("gate: server holds %d devices, %d were uploaded", len(ds.Devices()), devices)
	}
	return records, err
}

// checkReplicate is the fleet gate: the merged dataset over every shard
// must have the CRC-32C of the reference dataset. With a write quorum of
// two, every device is on at least two shards, so the merge holds each
// device in the canonical encoding of its records. It returns the records
// the fleet holds.
func (tf traffic) checkReplicate(merged *collect.Dataset, st replayStats) (int, error) {
	canonical := func(b []byte) []byte {
		return collect.EncodeRecords(collect.MergeRecords(core.ParseRecords(b)))
	}
	ref := collect.NewDataset()
	records := 0
	// The callback never fails, so neither does the walk.
	_ = tf.expected(st, func(id string, states []state) error {
		// Of a failed device's two states, the one the fleet holds is the
		// reference; the CRC comparison rejects every other dataset.
		s := states[0]
		got, ok := merged.Get(id)
		for _, alt := range states {
			if alt.data != nil && holds(got, ok, canonical(alt.data)) {
				s = alt
			}
		}
		if s.data != nil {
			ref.Put(id, canonical(s.data))
		}
		records += s.records
		return nil
	})
	if got, want := merged.CRC32C(), ref.CRC32C(); got != want {
		return records, fmt.Errorf("gate: fleet merged dataset CRC32C %08x, reference %08x", got, want)
	}
	return records, nil
}

// printLatency prints an operation's latency median and p99 with the
// sample count, or why they are refused.
func printLatency(name string, samples []float64) {
	l, err := summarise(samples)
	if err != nil {
		fmt.Printf("# %s: %v\n", name, err)
		return
	}
	fmt.Printf("# %s_p50_ms %.4f  %s_p99_ms %.4f  (n=%d)\n", name, l.p50, name, l.p99, l.n)
}
