package collect

import (
	"strings"
	"sync"
	"testing"
	"time"

	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// supervisedRun drives one quiet phone against a supervised server that is
// killed every few requests, and returns the supervisor and the dataset it
// fed. The uploader retries with backoff, so every injected crash is
// absorbed by the protocol, never by the test.
func supervisedRun(t *testing.T, seed uint64, days int) (*Supervisor, *Dataset, *Uploader) {
	t.Helper()
	ds := NewDataset()
	sup, err := NewSupervisor("127.0.0.1:0", ds, SupervisorConfig{
		Crash:        CrashFaults{KillEveryMin: 2, KillEveryMax: 5},
		CompactEvery: 2 << 10,
		Rng:          sim.NewRand(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	d := phone.NewDevice("sup-kill", eng, quietConfig(seed))
	l := core.Install(d, core.Config{})
	u := AttachUploaderWith(d, sup.Addr(), l.Config().LogPath, UploaderConfig{
		Every:     2 * time.Hour,
		RetryBase: 10 * time.Minute,
		RetryMax:  time.Hour,
	})
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(time.Duration(days) * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	return sup, ds, u
}

// hits returns how many kills fired at each crashpoint.
func hits(s *Supervisor) [numCrashpoints]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pointHits
}

func TestSupervisorKillsAndRecovers(t *testing.T) {
	sup, ds, u := supervisedRun(t, 1701, 10)
	defer sup.Close()

	if err := sup.Err(); err != nil {
		t.Fatalf("supervisor restart failed: %v", err)
	}
	if sup.Crashes() == 0 {
		t.Fatal("no crashes injected — the kill schedule is not reaching the server")
	}
	if sup.Restarts() != sup.Crashes() {
		t.Errorf("crashes %d != restarts %d: an incarnation never came back",
			sup.Crashes(), sup.Restarts())
	}
	if u.Successes() == 0 {
		t.Fatal("no upload ever succeeded across the crashes")
	}
	if sup.Compactions() == 0 {
		t.Error("WAL never compacted despite the tiny CompactEvery")
	}
	total := 0
	for _, n := range hits(sup) {
		total += n
	}
	if total != sup.Crashes() {
		t.Errorf("crashpoint hits sum to %d, crashes = %d", total, sup.Crashes())
	}

	// The tentpole invariant: every record any incarnation acknowledged is
	// in the final dataset exactly once.
	counts := make(map[string]int)
	for _, r := range ds.Records("sup-kill") {
		counts[string(core.EncodeRecord(r))]++
	}
	acked := sup.AckedKeys("sup-kill")
	if len(acked) == 0 {
		t.Fatal("server never acknowledged a record")
	}
	for _, key := range acked {
		if counts[key] != 1 {
			t.Errorf("acknowledged record appears %d times in the dataset: %s", counts[key], key)
		}
	}
}

// TestSupervisorDeterministicRecovery: same seed, same kill schedule, same
// torn tails — the entire crash/recover history and the recovered dataset
// must be byte-identical across runs.
func TestSupervisorDeterministicRecovery(t *testing.T) {
	type witness struct {
		crashes, restarts, compact int
		hits                       [numCrashpoints]int
		crc                        uint32
		uploads                    int
	}
	run := func() witness {
		sup, ds, _ := supervisedRun(t, 31337, 8)
		defer sup.Close()
		if err := sup.Err(); err != nil {
			t.Fatal(err)
		}
		w := witness{
			crashes:  sup.Crashes(),
			restarts: sup.Restarts(),
			compact:  sup.Compactions(),
			crc:      ds.CRC32C(),
			uploads:  sup.Uploads(),
			hits:     hits(sup),
		}
		return w
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("crash/recover history is not a pure function of the seed.\n run 1: %+v\n run 2: %+v", a, b)
	}
	if a.crashes == 0 {
		t.Error("determinism check is vacuous: no crashes injected")
	}
}

// TestSupervisorRestartResumesExistingStore: a supervisor handed a prior
// store recovers its state before serving, so acknowledged records survive
// even a full process replacement (not just an in-process restart).
func TestSupervisorRestartResumesExistingStore(t *testing.T) {
	store := NewCrashStore(nil)
	data := walTestRecords(1, 2, 3)
	store.Append(walName, encodeWALEntry(walEntry{Op: opUpload, Dev: "dev-x", Data: data}))
	store.Sync(walName)

	ds := NewDataset()
	sup, err := NewSupervisor("127.0.0.1:0", ds, SupervisorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	got, ok := ds.Get("dev-x")
	if !ok || string(got) != string(data) {
		t.Errorf("recovered dataset = %q, want the WAL-logged upload %q", got, data)
	}
}

// tapCounter is an OnRecord tap that counts deliveries per device and
// serialized record.
type tapCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *tapCounter) tap(dev string, r core.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[dev+" "+string(core.EncodeRecord(r))]++
}

func (c *tapCounter) count(dev string, r core.Record) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[dev+" "+string(core.EncodeRecord(r))]
}

// chunkDiesUnacked sends a CHUNK that the supervisor's server is killed
// on between the WAL sync and the ACK, and waits for the restart: the
// chunk is recovered into the dataset, never acknowledged.
func chunkDiesUnacked(t *testing.T, sup *Supervisor, id string, off int, chunk []byte) {
	t.Helper()
	if !sup.InjectKill(CrashAfterWALSync) {
		t.Fatal("kill not armed")
	}
	if _, err := (NetTransport{}).UploadChunk(sup.Addr(), id, off, chunk); err == nil {
		t.Fatal("chunk was acked despite the kill after the WAL sync")
	}
	if !sup.Settle(10 * time.Second) {
		t.Fatal("supervisor did not restart")
	}
}

// TestTapCoversUnackedRecordsReplacedByRewindOrFin pins the record tap's
// at-least-once contract across a crash between the WAL sync and the ACK.
// The killed CHUNK is recovered into the dataset without an ACK, so the
// next incarnation never taps it on its own. A rewind then replaces that
// stream; later a second unacked CHUNK is retired by a FIN. Every record
// in the dataset must still reach the tap.
func TestTapCoversUnackedRecordsReplacedByRewindOrFin(t *testing.T) {
	const id = "tap-dev"
	var taps tapCounter
	ds := NewDataset()
	sup, err := NewSupervisor("127.0.0.1:0", ds, SupervisorConfig{OnRecord: taps.tap})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	var tr NetTransport
	checkTapped := func(stage string, want int) {
		t.Helper()
		recs := ds.Records(id)
		if len(recs) != want {
			t.Fatalf("%s: dataset holds %d records, want %d", stage, len(recs), want)
		}
		for _, r := range recs {
			if taps.count(id, r) == 0 {
				t.Errorf("%s: dataset record never tapped: %s", stage, core.EncodeRecord(r))
			}
		}
	}

	chunkDiesUnacked(t, sup, id, 0, walTestRecords(1, 2))
	// A master reset restarts the device's log: the rewind to offset 0
	// replaces the recovered, never-acked stream.
	second := walTestRecords(3, 4)
	if n, err := tr.UploadChunk(sup.Addr(), id, 0, second); err != nil || n != len(second) {
		t.Fatalf("rewind chunk = %d, %v", n, err)
	}
	checkTapped("rewind", 4)

	chunkDiesUnacked(t, sup, id, len(second), walTestRecords(5))
	if err := Fin(sup.Addr(), id); err != nil {
		t.Fatal(err)
	}
	checkTapped("fin", 5)
	if sup.Crashes() != 2 || sup.Restarts() != 2 {
		t.Errorf("crashes/restarts = %d/%d, want 2/2", sup.Crashes(), sup.Restarts())
	}
}

// TestTapUnackedThenAckedFiresOnce pins the ledger's memory of what it
// tapped: records tapped unacked when a rewind replaces their stream are
// not tapped again when the rewinding chunk re-sends them and they are
// acknowledged, and a record only tapped unacked (retired by a FIN) stays
// out of the acked keys.
func TestTapUnackedThenAckedFiresOnce(t *testing.T) {
	const id = "tap-resend"
	var taps tapCounter
	ds := NewDataset()
	sup, err := NewSupervisor("127.0.0.1:0", ds, SupervisorConfig{OnRecord: taps.tap})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	chunkDiesUnacked(t, sup, id, 0, walTestRecords(1, 2))
	// The retry rewinds to offset 0 and re-sends the unacked records.
	resent := walTestRecords(1, 2, 3)
	if n, err := (NetTransport{}).UploadChunk(sup.Addr(), id, 0, resent); err != nil || n != len(resent) {
		t.Fatalf("rewind chunk = %d, %v", n, err)
	}
	chunkDiesUnacked(t, sup, id, len(resent), walTestRecords(4))
	if err := Fin(sup.Addr(), id); err != nil {
		t.Fatal(err)
	}

	recs := ds.Records(id)
	if len(recs) != 4 {
		t.Fatalf("dataset holds %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if n := taps.count(id, r); n != 1 {
			t.Errorf("record tapped %d times, want once: %s", n, core.EncodeRecord(r))
		}
	}
	var want []string
	for _, r := range core.ParseRecords(resent) {
		want = append(want, string(core.EncodeRecord(r)))
	}
	if got := sup.AckedKeys(id); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("acked keys = %q, want the three acknowledged records %q", got, want)
	}
}

// TestTapFiresOncePerRecordAcrossRestart pins the supervisor-lifetime acked
// ledger: a restarted incarnation shares it with the one that died, so when
// the client extends its stream after a kill, the records acked before the
// kill do not reach the tap a second time.
func TestTapFiresOncePerRecordAcrossRestart(t *testing.T) {
	const id = "tap-once"
	var mu sync.Mutex
	taps := make(map[string]int)
	sup, err := NewSupervisor("127.0.0.1:0", NewDataset(), SupervisorConfig{
		OnRecord: func(dev string, r core.Record) {
			mu.Lock()
			defer mu.Unlock()
			taps[string(core.EncodeRecord(r))]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	var tr NetTransport
	send := func(off int, chunk []byte) {
		t.Helper()
		if n, err := tr.UploadChunk(sup.Addr(), id, off, chunk); err != nil || n != off+len(chunk) {
			t.Fatalf("chunk at %d = %d, %v", off, n, err)
		}
	}

	ab, c, d := walTestRecords(1, 2), walTestRecords(3), walTestRecords(4)
	send(0, ab)
	if !sup.InjectKill(CrashAfterAck) {
		t.Fatal("kill not armed")
	}
	send(len(ab), c)
	if !sup.Settle(10*time.Second) || sup.Crashes() != 1 || sup.Restarts() != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", sup.Crashes(), sup.Restarts())
	}
	send(len(ab)+len(c), d)

	var want []string
	for _, r := range core.ParseRecords(walTestRecords(1, 2, 3, 4)) {
		want = append(want, string(core.EncodeRecord(r)))
	}
	mu.Lock()
	for _, k := range want {
		if taps[k] != 1 {
			t.Errorf("record tapped %d times, want once: %s", taps[k], k)
		}
	}
	if len(taps) != len(want) {
		t.Errorf("tap saw %d distinct records, want %d", len(taps), len(want))
	}
	mu.Unlock()
	if got := sup.AckedKeys(id); strings.Join(got, "") != strings.Join(want, "") {
		t.Errorf("acked keys = %q, want %q", got, want)
	}
}
