package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// fleetTestLog builds a canonical record log (one panic per timestamp).
func fleetTestLog(times ...int64) []byte {
	var recs []core.Record
	for _, tm := range times {
		recs = append(recs, core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", PType: 3, Time: tm})
	}
	return collect.EncodeRecords(recs)
}

// uploadLog sends a device's whole log the way the study-end collection
// does: one CHUNK at offset 0, acknowledged with the log's length.
func uploadLog(addr, id string, data []byte) error {
	n, err := collect.NetTransport{}.UploadChunk(addr, id, 0, data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("acked %d of %d bytes", n, len(data))
	}
	return err
}

// uploadRetry rides out injected kills the way the study uploader does: a
// dead connection is retried against the same (pinned) fleet address.
func uploadRetry(t *testing.T, addr, id string, data []byte) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 32; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
		if err = uploadLog(addr, id, data); err == nil {
			return
		}
	}
	t.Fatalf("upload %s never succeeded: %v", id, err)
}

func TestOwnerProperties(t *testing.T) {
	members := []string{"shard-01", "shard-02", "shard-03"}
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		dev := fmt.Sprintf("phone-%02d", i)
		o1, ok := Owner(dev, members)
		if !ok {
			t.Fatalf("no owner for %s", dev)
		}
		o2, _ := Owner(dev, members)
		if o1 != o2 {
			t.Fatalf("owner of %s not deterministic: %s vs %s", dev, o1, o2)
		}
		valid := false
		for _, m := range members {
			valid = valid || m == o1
		}
		if !valid {
			t.Fatalf("owner %s of %s not a member", o1, dev)
		}
		seen[o1] = true
	}
	if len(seen) != len(members) {
		t.Errorf("64 devices landed on only %d of %d shards — the hash is not spreading", len(seen), len(members))
	}
	if _, ok := Owner("phone-01", nil); ok {
		t.Error("empty member list produced an owner")
	}
}

// TestFleetRoutesByDevice: every upload through the router lands on the
// device's rendezvous owner, and the merged dataset is the exact union.
func TestFleetRoutesByDevice(t *testing.T) {
	// Replicate: 1 pins the pre-quorum single-copy fleet: this test's whole
	// point is that exactly the rendezvous owner holds each device.
	f, err := New(Config{Servers: 3, Replicate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	logs := make(map[string][]byte)
	for i := 0; i < 9; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		logs[dev] = fleetTestLog(int64(100*i+1), int64(100*i+2))
		if err := uploadLog(f.Addr(), dev, logs[dev]); err != nil {
			t.Fatalf("upload %s: %v", dev, err)
		}
	}

	live, _ := f.Members()
	for dev, data := range logs {
		owner, _ := Owner(dev, live)
		for _, m := range f.members {
			got, ok := m.ds.Get(dev)
			if m.name == owner {
				if !ok || !bytes.Equal(got, data) {
					t.Errorf("%s: owner %s holds %q, want %q", dev, owner, got, data)
				}
			} else if ok {
				t.Errorf("%s: non-owner %s also holds the device", dev, m.name)
			}
		}
	}
	merged := f.MergedDataset()
	for dev, data := range logs {
		got, ok := merged.Get(dev)
		if !ok || !bytes.Equal(got, data) {
			t.Errorf("merged dataset: %s = %q, want %q", dev, got, data)
		}
	}
}

// TestFleetJoinMidUpload: a shard joining mid-study steals ~1/N of the
// devices; their merged logs and live chunk streams replicate to the
// joiner, the epoch bumps, and new traffic for a stolen device routes to
// the joiner — while the merged dataset keeps every record exactly once.
func TestFleetJoinMidUpload(t *testing.T) {
	f, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Find a device the future shard-03 will steal from the current two.
	oldNames := []string{"shard-01", "shard-02"}
	newNames := []string{"shard-01", "shard-02", "shard-03"}
	stolen := ""
	for i := 0; i < 64 && stolen == ""; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		if o, _ := Owner(dev, newNames); o == "shard-03" {
			stolen = dev
		}
	}
	if stolen == "" {
		t.Fatal("no device maps to shard-03 — rendezvous hash degenerate")
	}
	oldOwner, _ := Owner(stolen, oldNames)

	logBytes := fleetTestLog(1, 2, 3)
	if err := uploadLog(f.Addr(), stolen, logBytes); err != nil {
		t.Fatal(err)
	}
	if err := collect.Fin(f.Addr(), stolen); err != nil {
		t.Fatal(err)
	}
	// A live chunk stream on the old owner: mid-upload state that must
	// follow the device to the joiner. HANDOFF goes shard to shard, so it
	// is sent to the owner's own address.
	oldAddr := ""
	for _, m := range f.members {
		if m.name == oldOwner {
			oldAddr = m.sup.Addr()
		}
	}
	streamBytes := fleetTestLog(7)
	if err := collect.Handoff(oldAddr, stolen, collect.HandoffStream, streamBytes); err != nil {
		t.Fatal(err)
	}

	if err := f.Join(); err != nil {
		t.Fatal(err)
	}
	if got := f.Epoch(); got != 1 {
		t.Errorf("epoch after join = %d, want 1", got)
	}
	if got := f.Servers(); got != 3 {
		t.Errorf("live shards after join = %d, want 3", got)
	}
	if f.Migrated() == 0 {
		t.Error("join migrated no devices")
	}

	joiner := f.members[len(f.members)-1]
	if joiner.name != "shard-03" {
		t.Fatalf("joiner is %s, want shard-03", joiner.name)
	}
	if data, ok := joiner.ds.Get(stolen); !ok || len(data) == 0 {
		t.Errorf("stolen device %s has no log on the joiner", stolen)
	}
	if st, ok := joiner.sup.Stream(stolen); !ok || !bytes.Equal(st, streamBytes) {
		t.Errorf("stolen device %s stream on joiner = %q, want %q", stolen, st, streamBytes)
	}

	// The donor keeps its copy (replication, not movement) and new traffic
	// routes to the joiner.
	for _, m := range f.members {
		if m.name == oldOwner {
			if _, ok := m.ds.Get(stolen); !ok {
				t.Errorf("donor %s dropped its copy of %s", oldOwner, stolen)
			}
		}
	}
	more := fleetTestLog(9)
	if err := uploadLog(f.Addr(), stolen, more); err != nil {
		t.Fatal(err)
	}
	after, _ := joiner.ds.Get(stolen)
	found := false
	for _, r := range core.ParseRecords(after) {
		found = found || r.Time == 9
	}
	if !found {
		t.Error("post-join upload for the stolen device did not land on the joiner")
	}

	// Exactly once in the merge, replicas and all.
	merged := f.MergedDataset()
	counts := make(map[string]int)
	for _, r := range merged.Records(stolen) {
		counts[string(core.EncodeRecord(r))]++
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("record %q appears %d times in the merge", key, n)
		}
	}
	for _, tm := range []int64{1, 2, 3, 7, 9} {
		ok := false
		for _, r := range merged.Records(stolen) {
			ok = ok || r.Time == tm
		}
		if !ok {
			t.Errorf("record at t=%d missing from the merge after join", tm)
		}
	}
}

// TestRouterRefusesHandoff: HANDOFF goes shard to shard, never through the
// router. A chunk handoff sent to the fleet address is refused at once,
// not forwarded without its body to sit out the shard's read deadline.
func TestRouterRefusesHandoff(t *testing.T) {
	f, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	conn, err := net.DialTimeout("tcp", f.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	body := fleetTestLog(1)
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	fmt.Fprintf(conn, "HANDOFF phone-01 %s %d %08x 0 %08x\n%s", collect.HandoffChunk, len(body), sum, sum, body)
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply within the deadline: %v", err)
	}
	if reply != "ERR bad header\n" {
		t.Errorf("reply %q, want ERR bad header", reply)
	}
}

// TestFleetLeaveMidHandoffNoLoss: a shard leaving while its drain is cut
// short partway (the during-rebalance crashpoint) can lose nothing — the
// departed shard's dataset is retained by the merge.
func TestFleetLeaveMidHandoffNoLoss(t *testing.T) {
	f, err := New(Config{Servers: 3, Rng: sim.NewRand(42)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	live, _ := f.Members()
	logs := make(map[string][]byte)
	leaverDevs := 0
	for i := 0; i < 24; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		logs[dev] = fleetTestLog(int64(10*i + 1))
		if err := uploadLog(f.Addr(), dev, logs[dev]); err != nil {
			t.Fatal(err)
		}
		if o, _ := Owner(dev, live); o == "shard-01" {
			leaverDevs++
		}
	}
	if leaverDevs == 0 {
		t.Fatal("no device on the leaving shard — the drain is vacuous")
	}

	// Arm the during-rebalance crashpoint by hand: the drain stops after an
	// RNG-drawn prefix of its plan.
	f.mu.Lock()
	f.abortRebalance = true
	f.mu.Unlock()
	if err := f.Leave(); err != nil {
		t.Fatal(err)
	}
	if got := f.Servers(); got != 2 {
		t.Errorf("live shards after leave = %d, want 2", got)
	}
	if got := f.HandoffAborts(); got != 1 {
		t.Errorf("HandoffAborts = %d, want 1", got)
	}
	if f.members[0].live {
		t.Error("shard-01 still live after leave")
	}

	// Every acked record survives the aborted drain, exactly once.
	merged := f.MergedDataset()
	for dev, data := range logs {
		got, ok := merged.Get(dev)
		if !ok {
			t.Errorf("%s lost in the aborted leave", dev)
			continue
		}
		counts := make(map[string]int)
		for _, r := range core.ParseRecords(got) {
			counts[string(core.EncodeRecord(r))]++
		}
		for _, r := range core.ParseRecords(data) {
			if counts[string(core.EncodeRecord(r))] != 1 {
				t.Errorf("%s: record %d not exactly-once after leave", dev, r.Time)
			}
		}
	}

	// The survivors still serve every device, including the leaver's.
	for dev := range logs {
		uploadRetry(t, f.Addr(), dev, fleetTestLog(999))
	}
}

// TestFleetKillSubsetsAndRouterRestart: with kills drawn every 2-4 routed
// requests over {shards, router}, uploads with client retries still land
// every record exactly once, the router rebinds its pinned address, and
// crashed shards hand their state to peers.
func TestFleetKillSubsetsAndRouterRestart(t *testing.T) {
	f, err := New(Config{
		Servers: 3,
		Crash:   collect.CrashFaults{KillEveryMin: 2, KillEveryMax: 4},
		Rng:     sim.NewRand(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addr := f.Addr()

	logs := make(map[string][]byte)
	for round := 0; round < 6; round++ {
		for i := 0; i < 6; i++ {
			dev := fmt.Sprintf("phone-%02d", i+1)
			logs[dev] = append(logs[dev], fleetTestLog(int64(100*round+i+1))...)
			uploadRetry(t, addr, dev, logs[dev])
		}
	}
	if err := f.Err(); err != nil {
		t.Fatalf("fleet error: %v", err)
	}
	if f.Crashes() == 0 {
		t.Error("no shard crashes fired")
	}
	if f.Restarts() != f.Crashes() {
		t.Errorf("crashes %d != restarts %d", f.Crashes(), f.Restarts())
	}
	if f.RouterKills() == 0 {
		t.Error("the router was never drawn into a kill subset")
	}
	if f.RouterRestarts() != f.RouterKills() {
		t.Errorf("router kills %d != restarts %d", f.RouterKills(), f.RouterRestarts())
	}
	if got := f.Addr(); got != addr {
		t.Errorf("fleet address moved across router restarts: %s -> %s", addr, got)
	}

	merged := f.MergedDataset()
	for _, dev := range f.AckedDevices() {
		counts := make(map[string]int)
		for _, r := range merged.Records(dev) {
			counts[string(core.EncodeRecord(r))]++
		}
		for _, key := range f.AckedKeys(dev) {
			if counts[key] != 1 {
				t.Errorf("%s: acked record present %d times after fleet kills", dev, counts[key])
			}
		}
	}
}

// TestOneMemberFleet covers Servers: 1 directly: a router-less fleet whose
// lone shard schedules its own kills. Membership and partition changes are
// refused, R and W resolve to 1 whatever was asked, and the merged dataset
// is exactly what was uploaded.
func TestOneMemberFleet(t *testing.T) {
	f, err := New(Config{
		Servers:      1,
		Replicate:    3,
		Quorum:       2,
		CompactEvery: 512,
		Crash:        collect.CrashFaults{KillEveryMin: 2, KillEveryMax: 4},
		Rng:          sim.NewRand(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Join(); err == nil {
		t.Error("Join on a one-member fleet succeeded")
	}
	if err := f.Leave(); err == nil {
		t.Error("Leave on a one-member fleet succeeded")
	}
	if err := f.CutPower("shard-01"); err == nil {
		t.Error("CutPower on a one-member fleet succeeded")
	}
	if err := f.Partition("shard-01", true); err == nil {
		t.Error("Partition on a one-member fleet succeeded")
	}
	if f.Servers() != 1 || f.ReplicationFactor() != 1 || f.WriteQuorum() != 1 {
		t.Errorf("servers/R/W = %d/%d/%d, want 1/1/1", f.Servers(), f.ReplicationFactor(), f.WriteQuorum())
	}

	want := collect.NewDataset()
	logs := make(map[string][]byte)
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			dev := fmt.Sprintf("phone-%02d", i+1)
			logs[dev] = append(logs[dev], fleetTestLog(int64(100*round+i+1))...)
			uploadRetry(t, f.Addr(), dev, logs[dev])
			want.PutMerged(dev, logs[dev])
		}
	}
	if err := f.Err(); err != nil {
		t.Fatalf("fleet error: %v", err)
	}
	if !f.Quiesce(5 * time.Second) {
		t.Fatal("a shard restart never completed")
	}
	if f.Crashes() == 0 || f.Restarts() != f.Crashes() {
		t.Errorf("crashes/restarts = %d/%d, want equal and > 0", f.Crashes(), f.Restarts())
	}
	if got, exp := f.MergedDataset().CRC32C(), want.CRC32C(); got != exp {
		t.Errorf("merged dataset CRC32C %08x, uploaded %08x", got, exp)
	}
}

// TestFleetTapsEachRecordOnce: the shards of a replicated fleet share one
// acked ledger, so each record reaches OnRecord once, from whichever shard
// commits it first, not once per replica that takes custody of it.
func TestFleetTapsEachRecordOnce(t *testing.T) {
	var mu sync.Mutex
	taps := make(map[string]int)
	f, err := New(Config{
		Servers: 3, Replicate: 3, Quorum: 2, BeatEvery: 1 << 30,
		OnRecord: func(dev string, r core.Record) {
			mu.Lock()
			defer mu.Unlock()
			taps[dev+" "+string(core.EncodeRecord(r))]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &chunker{addr: f.Addr(), dev: "phone-01"}
	for i := 0; i < 20; i++ {
		c.grow(1)
		if err := c.send(); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// Close waits for the replica that lagged behind the W=2 quorum.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs := core.ParseRecords(c.log)
	mu.Lock()
	defer mu.Unlock()
	for _, r := range recs {
		if n := taps[c.dev+" "+string(core.EncodeRecord(r))]; n != 1 {
			t.Errorf("record t=%d tapped %d times, want once", r.Time, n)
		}
	}
	if len(taps) != len(recs) {
		t.Errorf("tap saw %d distinct records, want %d", len(taps), len(recs))
	}
}

// TestFleetNoGoroutineLeak is the satellite leak check: after kill/restart
// cycles on every shard and the router, plus a join and a leave, closing
// the fleet returns the process to its original goroutine count — no
// acceptor survives a listener rebind, no handler survives its connection.
func TestFleetNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	f, err := New(Config{
		Servers: 3,
		Crash:   collect.CrashFaults{KillEveryMin: 2, KillEveryMax: 4},
		Rng:     sim.NewRand(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			dev := fmt.Sprintf("phone-%02d", i+1)
			uploadRetry(t, f.Addr(), dev, fleetTestLog(int64(10*round+i+1)))
		}
	}
	if err := f.Join(); err != nil {
		t.Fatal(err)
	}
	if err := f.Leave(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		uploadRetry(t, f.Addr(), dev, fleetTestLog(int64(1000+i)))
	}
	kills := f.Crashes() + f.RouterKills()
	if kills == 0 {
		t.Fatal("leak check ran without a single kill/restart cycle")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after %d kills: %d before, %d after close",
				kills, before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
