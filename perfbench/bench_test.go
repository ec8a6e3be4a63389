package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"symfail"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
)

// smallShape keeps the self-tests fast: a few phones over two months still
// upload weekly, master-reset and fail.
var smallShape = shape{phones: 4, duration: 2 * phone.StudyMonth, joinWindow: phone.StudyMonth / 2}

func TestPercentileRefusesShortTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it; want refusal")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want refusal")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := summarise(seq(500)); err == nil {
		t.Error("summarise gave a p99 from 500 samples")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFailureAccounting(t *testing.T) {
	if got := okFrac(10, 3); got != 0.7 {
		t.Errorf("okFrac(10, 3) = %v, want 0.7", got)
	}
	if got := okFrac(0, 0); got != 0 {
		t.Errorf("okFrac(0, 0) = %v, want 0", got)
	}
	full := values{}
	for _, d := range endToEnd {
		full[d.name] = 1
	}
	if _, err := assemble(outcome{attempted: 0, values: full}, endToEnd); err == nil {
		t.Error("a run that attempted nothing was accepted")
	}
	res, err := assemble(outcome{attempted: 4, failed: 1, values: full}, endToEnd)
	if err != nil || res.Attempted != 4 || res.Failed != 1 {
		t.Errorf("assemble = %+v, %v", res, err)
	}
	delete(full, "setup_s")
	if _, err := assemble(outcome{attempted: 1, values: full}, endToEnd); err == nil {
		t.Error("a run missing setup_s was accepted")
	}

}

// refuser is a transport in front of a real tier that fails every
// every-th chunk: refused before it is sent, as by a tier answering
// "ERR quorum unavailable", or — with commit — sent and committed but its
// ACK lost.
type refuser struct {
	collect.NetTransport
	every  int
	commit bool

	mu sync.Mutex
	n  int
}

func (r *refuser) UploadChunk(addr, id string, offset int, data []byte) (int, error) {
	r.mu.Lock()
	r.n++
	fail := r.n%r.every == 0
	r.mu.Unlock()
	if !fail {
		return r.NetTransport.UploadChunk(addr, id, offset, data)
	}
	if r.commit {
		if _, err := r.NetTransport.UploadChunk(addr, id, offset, data); err != nil {
			return 0, err
		}
	}
	return 0, errors.New("ERR quorum unavailable")
}

func TestRefusalsMoveOkFrac(t *testing.T) {
	c := smallCapture(t, 7)
	for _, commit := range []bool{false, true} {
		tr, err := startSingle(false)
		if err != nil {
			t.Fatal(err)
		}
		st := replay(traffic{c}, &refuser{every: 10, commit: commit}, tr.addr(), 0.5, false)
		if _, _, err := finish(tr, traffic{c}, st); err != nil {
			t.Errorf("commit=%v: gate after refusals: %v", commit, err)
		}
		// Every tenth chunk attempted fails and nothing else does.
		if got := 1 - okFrac(st.attempted, st.failed); st.attempted < 100 || math.Abs(got-0.1) > 0.01 {
			t.Errorf("commit=%v: %d of %d operations failed (%.3f), want a share of 0.1",
				commit, st.failed, st.attempted, got)
		}
	}

	// Against a tier that is already down, every chunk and query fails,
	// and the clients carry on until the measuring time is up.
	tr, err := startSingle(false)
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.addr()
	if err := tr.close(); err != nil {
		t.Fatal(err)
	}
	st := replay(traffic{c}, collect.NetTransport{}, addr, 0.3, true)
	if st.attempted <= workers || st.failed != st.attempted || st.chunks != 0 || len(st.reads) != 0 {
		t.Errorf("replay against a closed server: attempted %d failed %d chunks %d reads %d; want every operation failed",
			st.attempted, st.failed, st.chunks, len(st.reads))
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s in code, %s %s in BENCHMARK.json", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestBucket(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "symfail/internal/core.ParseRecords", "symfail/internal/collect.(*Server).handleChunk"}, "core"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "symfail/internal/collect.(*Server).handleChunk"}, "net"},
		{[]string{"sort.Slice", "symfail/internal/collect/fleet.(*Supervisor).replicate.func1"}, "fleet"},
		{[]string{"symfail/internal/analysis/stream.(*LiveStudy).Observe"}, "stream"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	p := &profile{samples: []sample{
		{stack: cases[1].stack, weight: 3},
		{stack: cases[3].stack, weight: 1},
	}}
	if got := p.shareWith("symfail/internal/core.ParseRecords", "symfail/internal/collect"); got != 0.75 {
		t.Errorf("parse share = %v, want 0.75", got)
	}
	if got := p.shares()["fleet"]; got != 0.25 {
		t.Errorf("fleet share = %v, want 0.25", got)
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range s.stack {
			found = found || strings.HasSuffix(f, "TestParseProfile")
		}
	}
	if len(p.samples) == 0 || !found {
		t.Errorf("decoded %d goroutine samples, none running TestParseProfile", len(p.samples))
	}
}

// truncated returns a copy of ds with device id cut to half its records.
func truncated(ds *collect.Dataset, id string) *collect.Dataset {
	out := collect.NewDataset()
	for _, d := range ds.Devices() {
		data, _ := ds.Get(d)
		if d == id {
			recs := core.ParseRecords(data)
			data = collect.EncodeRecords(recs[:len(recs)/2])
		}
		out.Put(d, data)
	}
	return out
}

func TestStudyGatesTripOnCorruptedDataset(t *testing.T) {
	fs, err := symfail.RunFieldStudy(smallShape.studyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	tables := renderTables(fs.Study.Snapshot())
	if err := checkStudy(fs.Dataset, fs.Study.Options(), tables); err != nil {
		t.Fatalf("healthy study: %v", err)
	}
	if err := sameStudy(fs.Dataset, tables, fs.Dataset.CRC32C(), tables); err != nil {
		t.Fatalf("identical composition: %v", err)
	}
	bad := truncated(fs.Dataset, fs.Dataset.Devices()[0])
	if err := checkStudy(bad, fs.Study.Options(), tables); err == nil {
		t.Error("study gate passed a dataset with half a device's records removed")
	}
	if err := sameStudy(bad, tables, fs.Dataset.CRC32C(), tables); err == nil {
		t.Error("composition gate passed a dataset with half a device's records removed")
	}
}

func smallCapture(t *testing.T, seed uint64) *capture {
	t.Helper()
	c, err := newCapture(smallShape, seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.uploads) == 0 {
		t.Fatal("capture recorded no uploads")
	}
	return c
}

// reference rebuilds the dataset a healthy server must hold after a replay.
func reference(tf traffic, st replayStats) *collect.Dataset {
	ds := collect.NewDataset()
	_ = tf.expected(st, func(id string, states []state) error { ds.Put(id, states[0].data); return nil })
	return ds
}

func TestIngestGate(t *testing.T) {
	// Two deployments: the clients' first copies replay one each.
	tf := traffic{smallCapture(t, 7), smallCapture(t, 8)}
	tr, err := startSingle(true)
	if err != nil {
		t.Fatal(err)
	}
	st := replay(tf, collect.NetTransport{}, tr.addr(), 1, true)
	if st.failed != 0 || st.chunks <= len(tf[0].uploads)+len(tf[1].uploads) || len(st.reads) == 0 {
		t.Fatalf("replay: %d failed, %d chunks, %d reads; want a clean replay past one copy of each deployment", st.failed, st.chunks, len(st.reads))
	}
	s := tr.(*single)
	s.live.Observe("phone-xx.r0", core.Record{Time: 1})
	if _, _, err := finish(tr, tf, st); err == nil || !strings.Contains(err.Error(), "live study") {
		t.Errorf("gate passed a live study holding one record more than the dataset: %v", err)
	}

	ref := reference(tf, st)
	if _, err := tf.checkIngest(ref, st); err != nil {
		t.Fatalf("reference dataset: %v", err)
	}
	for _, id := range []string{tf.of(0).replicaID(0, 0), tf.of(1).replicaID(0, 1)} {
		if _, err := tf.checkIngest(truncated(ref, id), st); err == nil {
			t.Errorf("ingest gate passed a dataset with half of %s's records removed", id)
		}
	}
	ref.Put("phone-xx.r0", []byte("{}\n"))
	if _, err := tf.checkIngest(ref, st); err == nil {
		t.Error("ingest gate passed a dataset holding a device nobody uploaded")
	}
}

func TestReplicateGate(t *testing.T) {
	tf := traffic{smallCapture(t, 7)}
	tr, err := startReplicated(false)
	if err != nil {
		t.Fatal(err)
	}
	st := replay(tf, collect.NetTransport{}, tr.addr(), 0.3, false)
	if st.failed != 0 || st.chunks == 0 {
		t.Fatalf("replay: %d failed, %d chunks", st.failed, st.chunks)
	}
	merged, records, err := finish(tr, tf, st)
	if err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}
	if records == 0 {
		t.Error("healthy fleet holds no records")
	}
	if _, err := tf.checkReplicate(truncated(merged, merged.Devices()[0]), st); err == nil {
		t.Error("replicate gate passed a merged dataset with half a device's records removed")
	}
}

// same reports whether two captures recorded the same traffic.
func (c *capture) same(o *capture) bool {
	if len(c.uploads) != len(o.uploads) || c.hours != o.hours {
		return false
	}
	for i, u := range c.uploads {
		v := o.uploads[i]
		if u.dev != v.dev || u.at != v.at || u.offset != v.offset || !bytes.Equal(u.data, v.data) {
			return false
		}
	}
	return true
}

func TestCaptureRounds(t *testing.T) {
	c := smallCapture(t, 7)
	if !c.same(smallCapture(t, 7)) {
		t.Error("two captures of one seed differ")
	}
	if c.same(smallCapture(t, 8)) {
		t.Error("captures of two seeds are the same")
	}
	// The uploaders run weekly, so a round holds at most one upload per
	// device and the two-month capture spans about nine rounds.
	rounds, seen := 1, map[int]bool{}
	for i, u := range c.uploads {
		if c.newRound(i) {
			rounds++
			seen = map[int]bool{}
		}
		if seen[u.dev] {
			t.Fatalf("device %d uploads twice in round %d", u.dev, rounds)
		}
		seen[u.dev] = true
	}
	if rounds < 7 || rounds > 10 {
		t.Errorf("capture spans %d upload rounds, want about nine", rounds)
	}
}
