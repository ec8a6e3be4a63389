package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// exactlyOnce asserts every record of want appears exactly once in the
// merged dataset's view of dev.
func exactlyOnce(t *testing.T, f *Supervisor, dev string, want []byte) {
	t.Helper()
	merged := f.MergedDataset()
	counts := make(map[string]int)
	for _, r := range merged.Records(dev) {
		counts[string(core.EncodeRecord(r))]++
	}
	for _, r := range core.ParseRecords(want) {
		if n := counts[string(core.EncodeRecord(r))]; n != 1 {
			t.Errorf("%s: record t=%d present %d times in the merge, want exactly once", dev, r.Time, n)
		}
	}
}

// ackedExactlyOnce asserts the fleet-wide no-acknowledged-data-loss
// invariant: every acked key for every acked device is in the merge once.
func ackedExactlyOnce(t *testing.T, f *Supervisor) {
	t.Helper()
	merged := f.MergedDataset()
	for _, dev := range f.AckedDevices() {
		counts := make(map[string]int)
		for _, r := range merged.Records(dev) {
			counts[string(core.EncodeRecord(r))]++
		}
		for _, key := range f.AckedKeys(dev) {
			if counts[key] != 1 {
				t.Errorf("%s: acked record present %d times in the merge, want exactly once", dev, counts[key])
			}
		}
	}
}

// TestQuorumValidation: the fleet rejects impossible R/W combinations and
// resolves the documented defaults.
func TestQuorumValidation(t *testing.T) {
	if _, err := New(Config{Servers: 3, Replicate: 2, Quorum: 3}); err == nil {
		t.Error("W > R accepted")
	}
	if _, err := New(Config{Servers: 3, Replicate: -1}); err == nil {
		t.Error("negative R accepted")
	}
	f, err := New(Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r, w := f.ReplicationFactor(), f.WriteQuorum(); r != 3 || w != 2 {
		t.Errorf("defaults resolved to R=%d W=%d, want R=3 W=2", r, w)
	}
}

// TestQuorumWriteReplication: with R=3 on three shards, every acknowledged
// upload is on the rendezvous owner AND both successors by the time the ACK
// returns — replication happens at write time, not at crash time — and the
// merge still holds every record exactly once despite the triple copies.
func TestQuorumWriteReplication(t *testing.T) {
	f, err := New(Config{Servers: 3})
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

	for dev, data := range logs {
		want := core.ParseRecords(data)
		for _, m := range f.members {
			got, ok := m.ds.Get(dev)
			if !ok {
				t.Errorf("%s: shard %s holds no copy at R=3", dev, m.name)
				continue
			}
			counts := make(map[string]int)
			for _, r := range core.ParseRecords(got) {
				counts[string(core.EncodeRecord(r))]++
			}
			for _, r := range want {
				if counts[string(core.EncodeRecord(r))] != 1 {
					t.Errorf("%s: record t=%d not on shard %s exactly once", dev, r.Time, m.name)
				}
			}
		}
		exactlyOnce(t, f, dev, data)
	}
}

// TestQuorumKillAckingShardNoLoss is the acceptance scenario: power-cut the
// shard that acknowledged the write — supervisor disarmed first, so the
// OnCrash handoff never runs and nobody fails the data over. At R>=2 the
// ACK already covered a successor's WAL, so zero acknowledged records are
// lost; the cut shard's acked ledger survives to keep the check honest.
func TestQuorumKillAckingShardNoLoss(t *testing.T) {
	f, err := New(Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	live, _ := f.Members()
	logs := make(map[string][]byte)
	for i := 0; i < 12; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		logs[dev] = fleetTestLog(int64(10*i + 1))
		if err := uploadLog(f.Addr(), dev, logs[dev]); err != nil {
			t.Fatal(err)
		}
	}

	// Cut the owner of phone-01 — the shard whose ACK the client trusted.
	victim, _ := Owner("phone-01", live)
	if err := f.CutPower(victim); err != nil {
		t.Fatal(err)
	}

	ackedExactlyOnce(t, f)
	for dev, data := range logs {
		exactlyOnce(t, f, dev, data)
	}

	// The fleet keeps serving with the survivors (2 >= W).
	uploadRetry(t, f.Addr(), "phone-01", fleetTestLog(777))
}

// TestR1KillAckingShardLoses is the negative control: with replication off
// (R=1) the same power cut destroys the only copy. The invariant machinery
// must SEE the loss — acked keys outlive the shard, the data does not —
// proving the R>=2 test above is falsifiable.
func TestR1KillAckingShardLoses(t *testing.T) {
	f, err := New(Config{Servers: 3, Replicate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	live, _ := f.Members()
	for i := 0; i < 12; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		if err := uploadLog(f.Addr(), dev, fleetTestLog(int64(10*i+1))); err != nil {
			t.Fatal(err)
		}
	}
	victim, _ := Owner("phone-01", live)
	if err := f.CutPower(victim); err != nil {
		t.Fatal(err)
	}

	merged := f.MergedDataset()
	lost := 0
	for _, dev := range f.AckedDevices() {
		counts := make(map[string]int)
		for _, r := range merged.Records(dev) {
			counts[string(core.EncodeRecord(r))]++
		}
		for _, key := range f.AckedKeys(dev) {
			if counts[key] == 0 {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Error("R=1 power cut lost nothing — the kill-the-ACKing-shard test cannot be trusted to detect loss")
	}
}

// TestPartitionSuspectRejoin: a shard that is alive and WAL-syncing but
// unreachable from the router gets suspected — counted as a false
// suspicion, never confirmed dead — and routed around; when the partition
// heals, it rejoins without an epoch bump and without duplicating records.
func TestPartitionSuspectRejoin(t *testing.T) {
	f, err := New(Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	live, _ := f.Members()
	// A device owned by shard-02, whose traffic the partition must reroute.
	dev := ""
	for i := 0; i < 64 && dev == ""; i++ {
		d := fmt.Sprintf("phone-%02d", i+1)
		if o, _ := Owner(d, live); o == "shard-02" {
			dev = d
		}
	}
	if dev == "" {
		t.Fatal("no device maps to shard-02")
	}
	base := fleetTestLog(1, 2)
	if err := uploadLog(f.Addr(), dev, base); err != nil {
		t.Fatal(err)
	}
	epochBefore := f.Epoch()

	if err := f.Partition("shard-02", true); err != nil {
		t.Fatal(err)
	}
	// The first routed write discovers the partition (misses accrue inside
	// one forward loop), suspects the shard, and lands on a fallback.
	during := fleetTestLog(3)
	uploadRetry(t, f.Addr(), dev, append(append([]byte(nil), base...), during...))

	if got := f.Suspected(); len(got) != 1 || got[0] != "shard-02" {
		t.Fatalf("suspected = %v, want [shard-02]", got)
	}
	if f.FalseSuspicions() == 0 {
		t.Error("a healthy partitioned shard was suspected but not counted as a false suspicion")
	}
	if f.ConfirmedDead() != 0 {
		t.Error("a partitioned (alive, WAL-syncing) shard was confirmed dead")
	}

	if err := f.Partition("shard-02", false); err != nil {
		t.Fatal(err)
	}
	// Healed: beat rounds ride on routed traffic, so drive uploads until a
	// successful probe clears the suspicion.
	cleared := false
	for i := 0; i < 64 && !cleared; i++ {
		uploadRetry(t, f.Addr(), fmt.Sprintf("phone-%02d", i%9+1), fleetTestLog(int64(5000+i)))
		cleared = len(f.Suspected()) == 0
	}
	if !cleared {
		t.Fatal("suspicion never cleared after the partition healed")
	}
	if got := f.Epoch(); got != epochBefore {
		t.Errorf("epoch churned %d -> %d across a partition that never killed anyone", epochBefore, got)
	}
	if f.ConfirmedDead() != 0 {
		t.Error("confirmed-dead count moved on a partition-only run")
	}

	// Post-heal traffic routes to the original owner again, and the merge
	// holds everything exactly once — replicas, reroutes, rejoin and all.
	after := fleetTestLog(9)
	uploadRetry(t, f.Addr(), dev, after)
	exactlyOnce(t, f, dev, append(append(append([]byte(nil), base...), during...), after...))
	ackedExactlyOnce(t, f)
}

// TestBelowQuorumDegradation: kill shards until fewer than W are available
// — writes are refused with the retryable below-quorum ERR (one degraded
// window, not one per refusal), nothing acknowledged is lost, and once a
// join restores quorum the same uploads succeed.
func TestBelowQuorumDegradation(t *testing.T) {
	f, err := New(Config{Servers: 3, Rng: sim.NewRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	logs := make(map[string][]byte)
	for i := 0; i < 9; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		logs[dev] = fleetTestLog(int64(10*i + 1))
		if err := uploadLog(f.Addr(), dev, logs[dev]); err != nil {
			t.Fatal(err)
		}
	}

	// Two power cuts take the three-shard fleet below W=2.
	if err := f.CutPower("shard-01"); err != nil {
		t.Fatal(err)
	}
	if err := f.CutPower("shard-02"); err != nil {
		t.Fatal(err)
	}
	err = uploadLog(f.Addr(), "phone-01", fleetTestLog(500))
	if err == nil {
		t.Fatal("below-quorum write was acknowledged")
	}
	if !collect.IsBelowQuorum(err) {
		t.Fatalf("below-quorum refusal not marked retryable: %v", err)
	}
	if got := f.DegradedWindows(); got != 1 {
		t.Errorf("degraded windows = %d, want 1", got)
	}
	if f.DegradedRequests() == 0 {
		t.Error("no refusal was counted while below quorum")
	}

	// Nothing acknowledged before the outage is lost: R=3 put every record
	// on the lone survivor too.
	ackedExactlyOnce(t, f)
	for dev, data := range logs {
		exactlyOnce(t, f, dev, data)
	}

	// A join restores quorum; the refused upload now succeeds.
	if err := f.Join(); err != nil {
		t.Fatal(err)
	}
	uploadRetry(t, f.Addr(), "phone-01", fleetTestLog(500))
	if got := f.DegradedWindows(); got != 1 {
		t.Errorf("degraded windows after recovery = %d, want still 1", got)
	}
	exactlyOnce(t, f, "phone-01", fleetTestLog(500))
	ackedExactlyOnce(t, f)
}

// TestConfirmDeadTriggersRepair: a power-cut shard accrues beat misses with
// process-level evidence (its supervisor is gone), so the detector may
// confirm it dead — epoch bump, anti-entropy repair back to full
// replication — with zero false suspicions, because the corpse never
// answered a ground-truth probe.
func TestConfirmDeadTriggersRepair(t *testing.T) {
	f, err := New(Config{Servers: 3, BeatEvery: 1, SuspectAfter: 2, ConfirmAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 9; i++ {
		dev := fmt.Sprintf("phone-%02d", i+1)
		if err := uploadLog(f.Addr(), dev, fleetTestLog(int64(10*i+1))); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := f.Epoch()
	if err := f.CutPower("shard-03"); err != nil {
		t.Fatal(err)
	}
	// Every routed request carries a beat (BeatEvery: 1); a handful of
	// misses confirms the corpse dead and triggers repair.
	for i := 0; i < 16 && f.ConfirmedDead() == 0; i++ {
		uploadRetry(t, f.Addr(), fmt.Sprintf("phone-%02d", i%9+1), fleetTestLog(int64(9000+i)))
	}
	if got := f.ConfirmedDead(); got != 1 {
		t.Fatalf("confirmed dead = %d, want 1", got)
	}
	if f.Epoch() != epochBefore+1 {
		t.Errorf("epoch %d after confirmation, want %d", f.Epoch(), epochBefore+1)
	}
	if f.Repairs() == 0 {
		t.Error("confirmation triggered no anti-entropy repair")
	}
	if f.FalseSuspicions() != 0 {
		t.Errorf("%d false suspicions against a genuine corpse", f.FalseSuspicions())
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	ackedExactlyOnce(t, f)
}

// TestQuorumNoGoroutineLeak extends the fleet leak check to the quorum
// machinery: kills and restarts, a partition raised and healed, a power
// cut, confirmation with repair, a join and a leave — and Close still
// returns the process to its original goroutine count. The heartbeat
// detector is request-driven, so there is no beat goroutine to leak by
// construction; this proves the rest of the shutdown is as clean.
func TestQuorumNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	f, err := New(Config{
		Servers: 3,
		Crash:   collect.CrashFaults{KillEveryMin: 3, KillEveryMax: 6},
		Rng:     sim.NewRand(23),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			dev := fmt.Sprintf("phone-%02d", i+1)
			uploadRetry(t, f.Addr(), dev, fleetTestLog(int64(10*round+i+1)))
		}
	}
	if err := f.Partition("shard-02", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		uploadRetry(t, f.Addr(), fmt.Sprintf("phone-%02d", i+1), fleetTestLog(int64(100+i)))
	}
	if err := f.Partition("shard-02", false); err != nil {
		t.Fatal(err)
	}
	if err := f.CutPower("shard-03"); err != nil {
		t.Fatal(err)
	}
	if err := f.Join(); err != nil {
		t.Fatal(err)
	}
	if err := f.Leave(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		uploadRetry(t, f.Addr(), fmt.Sprintf("phone-%02d", i+1), fleetTestLog(int64(1000+i)))
	}
	if f.Crashes()+f.RouterKills() == 0 {
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
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
