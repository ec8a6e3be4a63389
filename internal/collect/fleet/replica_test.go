package fleet

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// Chunk replication onto the replicas' streams: a replica holds the stream
// the owner acknowledged, so the device's next CHUNK continues on it when
// the owner dies, and a replica that missed a write is filled from a peer
// instead of answering "ERR gap".

// chunker streams one device's framed log to a fleet the way the uploader
// does: each CHUNK carries the log past the acknowledged offset.
type chunker struct {
	addr, dev string
	log       []byte
	acked     int
	now       int64
}

// grow appends n records to the device's log.
func (c *chunker) grow(n int) {
	for i := 0; i < n; i++ {
		c.now++
		c.log = append(c.log, core.FrameRecord(core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", PType: 3, Apps: []string{"Phone.app"}, Time: c.now})...)
	}
}

// send CHUNKs the unacknowledged tail.
func (c *chunker) send() error {
	n, err := collect.NetTransport{}.UploadChunk(c.addr, c.dev, c.acked, c.log[c.acked:])
	if err == nil {
		c.acked = n
	}
	return err
}

// memberNamed returns the shard with the given name.
func (f *Supervisor) memberNamed(name string) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// replicaFleet starts a 3-shard R=3/W=2 fleet whose failure detector never
// probes, so a test decides alone which shard is down or suspected.
func replicaFleet(t *testing.T, compactEvery int) *Supervisor {
	t.Helper()
	f, err := New(Config{Servers: 3, Replicate: 3, Quorum: 2, BeatEvery: 1 << 30, CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// TestOwnerDeathNextChunkAccepted: stream a device for a few chunks, kill
// its owner, and the next CHUNK at the acknowledged offset is accepted by
// the new owner, which already holds the stream.
func TestOwnerDeathNextChunkAccepted(t *testing.T) {
	f := replicaFleet(t, 0)
	c := &chunker{addr: f.Addr(), dev: "phone-01"}
	for i := 0; i < 4; i++ {
		c.grow(3)
		if err := c.send(); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	live, _ := f.Members()
	owner, _ := Owner(c.dev, live)
	if err := f.CutPower(owner); err != nil {
		t.Fatal(err)
	}
	c.grow(2)
	if err := c.send(); err != nil {
		t.Fatalf("CHUNK at acked offset %d after owner %s died: %v", c.acked, owner, err)
	}
	next, _ := Owner(c.dev, survivors(f))
	if st, _ := f.memberNamed(next).sup.Stream(c.dev); !bytes.Equal(st, c.log) {
		t.Errorf("new owner %s holds a %d-byte stream, want the %d-byte log", next, len(st), len(c.log))
	}
	exactlyOnce(t, f, c.dev, collect.EncodeRecords(core.ParseRecords(c.log)))
}

// survivors returns the names of the live, uncut shards.
func survivors(f *Supervisor) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, m := range f.liveLocked() {
		out = append(out, m.name)
	}
	return out
}

// TestStaleReplicaFilledFromPeer: one replica is suspected for one write,
// so it misses that chunk while W=2 is still met. Then the owner dies and
// the router picks the stale replica: the next CHUNK is past its stream,
// and it is accepted after the fleet fills the gap from the other replica.
func TestStaleReplicaFilledFromPeer(t *testing.T) {
	f := replicaFleet(t, 0)
	c := &chunker{addr: f.Addr(), dev: "phone-01"}
	live, _ := f.Members()
	var order []target
	for _, name := range live {
		order = append(order, target{name: name})
	}
	order = rendezvousOrder(c.dev, order)
	owner, stale, peer := f.memberNamed(order[0].name), f.memberNamed(order[1].name), f.memberNamed(order[2].name)
	for i := 0; i < 2; i++ {
		c.grow(3)
		if err := c.send(); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	f.mu.Lock()
	stale.suspected = true
	f.mu.Unlock()
	c.grow(3)
	if err := c.send(); err != nil {
		t.Fatalf("chunk with %s suspected: %v", stale.name, err)
	}
	f.mu.Lock()
	stale.suspected = false
	f.mu.Unlock()
	if st, _ := stale.sup.Stream(c.dev); len(st) >= c.acked {
		t.Fatalf("%s holds %d stream bytes, want fewer than the acked %d: it did not miss the write", stale.name, len(st), c.acked)
	}
	if err := f.CutPower(owner.name); err != nil {
		t.Fatal(err)
	}
	c.grow(2)
	if err := c.send(); err != nil {
		t.Fatalf("CHUNK at acked offset %d on stale %s: %v", c.acked, stale.name, err)
	}
	for _, m := range []*member{stale, peer} {
		if st, _ := m.sup.Stream(c.dev); !bytes.Equal(st, c.log) {
			t.Errorf("%s holds a %d-byte stream, want the %d-byte log", m.name, len(st), len(c.log))
		}
	}
	exactlyOnce(t, f, c.dev, collect.EncodeRecords(core.ParseRecords(c.log)))
}

// TestStaleReplicaHealedByOwner: a replica that missed a write refuses the
// next chunk as stale, and the owner installs its whole stream there.
func TestStaleReplicaHealedByOwner(t *testing.T) {
	f := replicaFleet(t, 0)
	c := &chunker{addr: f.Addr(), dev: "phone-01"}
	live, _ := f.Members()
	owner, _ := Owner(c.dev, live)
	var stale *member
	for _, name := range live {
		if name != owner {
			stale = f.memberNamed(name)
			break
		}
	}
	for i, suspected := range []bool{false, true, false} {
		f.mu.Lock()
		stale.suspected = suspected
		f.mu.Unlock()
		c.grow(3)
		if err := c.send(); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if st, _ := stale.sup.Stream(c.dev); !bytes.Equal(st, c.log) {
		t.Errorf("%s holds a %d-byte stream after the owner's next chunk, want the %d-byte log", stale.name, len(st), len(c.log))
	}
	if n := f.HandoffFailures(); n != 0 {
		t.Errorf("%d handoff failures: the stale replica was not healed within the write's budget", n)
	}
}

// gapCounter wraps an uploader's transport and counts "ERR gap" replies.
type gapCounter struct {
	collect.Transport
	gaps *atomic.Int64
}

func (g gapCounter) UploadChunk(addr, deviceID string, offset int, chunk []byte) (int, error) {
	n, err := g.Transport.UploadChunk(addr, deviceID, offset, chunk)
	if err != nil && strings.Contains(err.Error(), "ERR gap") {
		g.gaps.Add(1)
	}
	return n, err
}

// TestServerCrashStudyNoGaps runs the server-crash study (four phones, two
// months, flash and network faults, a kill every 3–9 routed requests, a
// join and a leave) on five R=3 shards with eight workers, the sweep cell
// whose uploaders used to meet "ERR gap" after owner deaths, and requires
// that no CHUNK is refused as a gap.
func TestServerCrashStudyNoGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("a two-month study; skipped in -short")
	}
	const seed = 20072007
	f, err := New(Config{
		Servers:      5,
		Crash:        collect.CrashFaults{KillEveryMin: 3, KillEveryMax: 9},
		CompactEvery: 32 << 10,
		Rng:          sim.NewRand(seed ^ 0x636f6c6c656374),
		BeatRng:      sim.NewRand(seed ^ 0x62656174),
		JoinAfter:    40,
		LeaveAfter:   120,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	phones := phone.NewFleet(phone.FleetConfig{
		Seed:       seed,
		Phones:     4,
		Duration:   2 * phone.StudyMonth,
		JoinWindow: phone.StudyMonth / 4,
		Flash:      phone.FlashFaults{TornWriteProb: 0.6, BitRotPerWrite: 0.004, QuotaBytes: 512 << 10},
		Workers:    8,
	})
	var gaps atomic.Int64
	uploaders := make([]*collect.Uploader, 0, len(phones.Devices))
	for _, d := range phones.Devices {
		l := core.Install(d, core.Config{})
		net := collect.NewFaultyTransport(collect.RetryNetTransport{}, collect.NetFaults{
			RefuseProb: 0.08, DropProb: 0.04, CorruptProb: 0.04, DropAckProb: 0.04,
		}, d.SplitRand())
		uploaders = append(uploaders, collect.AttachUploaderWith(d, f.Addr(), l.Config().LogPath, collect.UploaderConfig{
			Every:     2 * 24 * time.Hour,
			RetryBase: 30 * time.Minute,
			RetryMax:  8 * time.Hour,
			Rng:       d.SplitRand(),
			Transport: gapCounter{Transport: net, gaps: &gaps},
		}))
	}
	if err := phones.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	successes := 0
	for _, u := range uploaders {
		successes += u.Successes()
	}
	t.Logf("%d crashes, %d chunks acknowledged, %d ERR gap replies", f.Crashes(), successes, gaps.Load())
	if f.Crashes() == 0 || successes == 0 {
		t.Fatalf("%d crashes, %d acknowledged chunks: the study exercised nothing", f.Crashes(), successes)
	}
	if n := gaps.Load(); n != 0 {
		t.Errorf("%d CHUNKs refused with ERR gap: a shard that took a device over lacked its stream", n)
	}
	ackedExactlyOnce(t, f)
}

// TestReplicaChunkCostFlatInStreamLength pins the replication cost of a
// CHUNK: the fleet allocates about the same per one-record CHUNK whether
// the device's stream holds 50 records or 2,000. Replicating the whole
// stream on every CHUNK, with each replica re-parsing it, grows with the
// stream. Each point is the cheapest of three windows of 50 CHUNKs, which
// keeps an occasional slice growth (amortised O(1)) out of the comparison;
// compaction is off, so none lands in a window.
func TestReplicaChunkCostFlatInStreamLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurements are distorted under -race")
	}
	f := replicaFleet(t, 1<<30)
	c := &chunker{addr: f.Addr(), dev: "phone-01"}
	send := func(n int) {
		c.grow(n)
		if err := c.send(); err != nil {
			t.Fatal(err)
		}
	}
	perChunk := func() float64 {
		best := -1.0
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				send(1)
			}
			runtime.ReadMemStats(&after)
			if b := float64(after.TotalAlloc-before.TotalAlloc) / 50; best < 0 || b < best {
				best = b
			}
		}
		return best
	}
	send(50)
	short := perChunk()
	send(2000 - 200)
	long := perChunk()
	t.Logf("fleet bytes allocated per CHUNK: %.0f at ~50 records, %.0f at ~2,000", short, long)
	if long > 2*short {
		t.Errorf("a CHUNK at ~2,000 records allocates %.0f bytes, more than twice the %.0f at ~50: replication cost grows with the stream", long, short)
	}
}
