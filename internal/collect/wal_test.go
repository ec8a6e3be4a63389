package collect

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// walTestRecords builds a canonical record log (one panic per timestamp) in
// the dataset's serialised form.
func walTestRecords(times ...int64) []byte {
	var recs []core.Record
	for _, tm := range times {
		recs = append(recs, core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", PType: 3, Time: tm})
	}
	return EncodeRecords(recs)
}

func hasRecordAt(data []byte, tm int64) bool {
	for _, r := range core.ParseRecords(data) {
		if r.Time == tm {
			return true
		}
	}
	return false
}

// storeState snapshots every file's logical bytes, for byte-identity checks.
func storeState(s *CrashStore) map[string][]byte {
	out := make(map[string][]byte)
	for _, n := range s.Names() {
		out[n] = s.Read(n)
	}
	return out
}

func TestWALRecoveryRoundTrip(t *testing.T) {
	store := NewCrashStore(nil)
	logA := walTestRecords(1, 2, 3)
	logB := walTestRecords(10, 11)
	append2 := func(e walEntry) { store.Append(walName, encodeWALEntry(e)) }

	// Device a: two chunks split mid-record.
	append2(walEntry{Op: opChunk, Dev: "a", Off: 0, Data: logA[:5]})
	append2(walEntry{Op: opChunk, Dev: "a", Off: 5, Data: logA[5:]})
	// Device b: a chunk, then the study-end whole log as a chunk at offset
	// 0, then FIN.
	append2(walEntry{Op: opChunk, Dev: "b", Off: 0, Data: logB[:4]})
	append2(walEntry{Op: opChunk, Dev: "b", Off: 0, Data: logB})
	append2(walEntry{Op: opFin, Dev: "b"})
	// Device c: a master reset rewinds the stream to zero with new history;
	// the already-acknowledged old records must survive in the merged log.
	append2(walEntry{Op: opChunk, Dev: "c", Off: 0, Data: walTestRecords(20, 21)})
	append2(walEntry{Op: opChunk, Dev: "c", Off: 0, Data: walTestRecords(30)})
	store.Sync(walName)

	files, streams := recoverServerState(store)
	if !bytes.Equal(files["a"], logA) {
		t.Errorf("a: recovered log = %q, want %q", files["a"], logA)
	}
	if !bytes.Equal(streams["a"], logA) {
		t.Errorf("a: recovered stream = %q, want %q", streams["a"], logA)
	}
	if !bytes.Equal(files["b"], logB) {
		t.Errorf("b: recovered log = %q, want %q", files["b"], logB)
	}
	if _, ok := streams["b"]; ok {
		t.Error("b: FIN-retired stream resurrected by recovery")
	}
	for _, tm := range []int64{20, 21, 30} {
		if !hasRecordAt(files["c"], tm) {
			t.Errorf("c: record at t=%d lost across the stream rewind", tm)
		}
	}
	if !bytes.Equal(streams["c"], walTestRecords(30)) {
		t.Errorf("c: stream after rewind = %q", streams["c"])
	}
}

func TestWALRecoveryEmptyStore(t *testing.T) {
	store := NewCrashStore(nil)
	files, streams := recoverServerState(store)
	if len(files) != 0 || len(streams) != 0 {
		t.Errorf("empty store recovered files=%v streams=%v", files, streams)
	}
	if names := store.Names(); len(names) != 0 {
		t.Errorf("recovery of an empty store created files: %v", names)
	}
}

// TestWALDoubleRecoveryByteIdentical is the recovery-idempotence contract:
// recovering a damaged store normalises it, and recovering the recovered
// store is byte-for-byte the same state without a single further write. The
// damage here is the worst compound case — a compaction that crashed after
// staging snapshot.tmp but before the rename commit point, plus a torn
// un-synced WAL tail.
func TestWALDoubleRecoveryByteIdentical(t *testing.T) {
	store := NewCrashStore(sim.NewRand(99))

	// Installed snapshot: device a with two acknowledged records.
	files0 := map[string][]byte{"a": walTestRecords(1, 2)}
	streams0 := map[string][]byte{"a": walTestRecords(1, 2)}
	store.Append(snapName, encodeSnapshot(files0, streams0))
	store.Sync(snapName)

	// One synced WAL entry past the snapshot.
	entry3 := walEntry{Op: opChunk, Dev: "a", Off: len(streams0["a"]), Data: walTestRecords(3)}
	store.Append(walName, encodeWALEntry(entry3))
	store.Sync(walName)

	// A compaction crashed mid-way: snapshot.tmp staged and synced, rename
	// never happened.
	store.Append(snapTmpName, []byte("half-written compaction output"))
	store.Sync(snapTmpName)

	// And one more WAL entry that never reached its sync barrier — the
	// crash tears it.
	store.Append(walName, encodeWALEntry(walEntry{Op: opChunk, Dev: "a", Off: 0, Data: walTestRecords(4)}))
	store.Crash()

	files1, streams1 := recoverServerState(store)
	for _, tm := range []int64{1, 2, 3} {
		if !hasRecordAt(files1["a"], tm) {
			t.Errorf("synced record at t=%d lost", tm)
		}
	}
	if hasRecordAt(files1["a"], 4) {
		t.Error("un-synced (torn) WAL entry surfaced after recovery")
	}
	state1 := storeState(store)
	if _, ok := state1[snapTmpName]; ok {
		t.Error("recovery left the stale snapshot.tmp behind")
	}
	appends1, syncs1 := store.Appends(), store.Syncs()

	files2, streams2 := recoverServerState(store)
	if !reflect.DeepEqual(files1, files2) || !reflect.DeepEqual(streams1, streams2) {
		t.Error("second recovery produced a different state")
	}
	if !reflect.DeepEqual(state1, storeState(store)) {
		t.Errorf("second recovery changed the medium.\nbefore: %v\nafter:  %v",
			state1, storeState(store))
	}
	if store.Appends() != appends1 || store.Syncs() != syncs1 {
		t.Errorf("second recovery wrote to the medium: appends %d→%d, syncs %d→%d",
			appends1, store.Appends(), syncs1, store.Syncs())
	}
}

// TestWALReplayAgainstFreshSnapshotIsNoOp covers the other compaction crash
// window: the rename commit point fired but the WAL truncation did not, so
// recovery replays a WAL whose effects the snapshot already contains.
func TestWALReplayAgainstFreshSnapshotIsNoOp(t *testing.T) {
	// Build a reference state the long way: snapshot + WAL.
	ref := NewCrashStore(nil)
	entry := walEntry{Op: opChunk, Dev: "a", Off: 0, Data: walTestRecords(1, 2, 3)}
	ref.Append(walName, encodeWALEntry(entry))
	ref.Append(walName, encodeWALEntry(walEntry{Op: opHandoff, Dev: "b", Data: walTestRecords(9)}))
	ref.Sync(walName)
	filesRef, streamsRef := recoverServerState(ref)

	// Now the post-install crash state: the fresh snapshot holds the full
	// state and the same WAL is still there, un-truncated.
	store := NewCrashStore(nil)
	store.Append(snapName, encodeSnapshot(filesRef, streamsRef))
	store.Sync(snapName)
	store.Append(walName, encodeWALEntry(entry))
	store.Append(walName, encodeWALEntry(walEntry{Op: opHandoff, Dev: "b", Data: walTestRecords(9)}))
	store.Sync(walName)

	files, streams := recoverServerState(store)
	if !reflect.DeepEqual(files, filesRef) || !reflect.DeepEqual(streams, streamsRef) {
		t.Errorf("replay against a snapshot containing its effects changed the state.\n got: %v / %v\nwant: %v / %v",
			files, streams, filesRef, streamsRef)
	}
}

// TestWALTornTailNormalised: recovery rewrites a dirty WAL to its clean
// prefix, so the medium converges instead of carrying damage forward.
func TestWALTornTailNormalised(t *testing.T) {
	store := NewCrashStore(sim.NewRand(5))
	good := encodeWALEntry(walEntry{Op: opHandoff, Dev: "a", Data: walTestRecords(1)})
	store.Append(walName, good)
	store.Sync(walName)
	store.Append(walName, encodeWALEntry(walEntry{Op: opHandoff, Dev: "a", Data: walTestRecords(2)}))
	store.Crash() // tears the second entry mid-frame

	if store.Size(walName) == len(good) {
		t.Skip("crash kept zero tail bytes — nothing to normalise with this seed")
	}
	files, _ := recoverServerState(store)
	if !hasRecordAt(files["a"], 1) || hasRecordAt(files["a"], 2) {
		t.Errorf("recovered log wrong: %q", files["a"])
	}
	if got := store.Read(walName); !bytes.Equal(got, good) {
		t.Errorf("WAL not normalised to its clean prefix: %d bytes, want %d", len(got), len(good))
	}
}

// TestReplayEmptyFirstWrite: a device whose first write is empty has a log
// — an empty one — and the next write merges into it, live and in replay
// alike. Replay once took an empty log for an absent one and stored the
// next CHUNK's raw stream where the live dataset held canonical lines.
func TestReplayEmptyFirstWrite(t *testing.T) {
	const id = "phone-01"
	stream := append(core.FrameRecord(core.Record{Kind: core.KindPanic, Category: "USER", PType: 11, Time: 5}),
		core.FrameRecord(core.Record{Kind: core.KindBoot, Time: 7, Boot: 2})...)
	chunk := func(off int, data []byte) string {
		return fmt.Sprintf("CHUNK %s %d %d %08x", id, off, len(data), crc32.Checksum(data, castagnoli))
	}
	// The study-end upload of an empty log: the whole log as a chunk at
	// offset 0, then FIN, so the next CHUNK starts a new stream.
	upload := []string{chunk(0, nil), "FIN " + id}
	for _, c := range []struct {
		name         string
		compactEvery int
		first        []string
	}{
		{"empty upload", 0, upload},
		{"empty upload, then a compaction", 1, upload},
		{"empty chunk", 0, []string{chunk(0, nil)}},
		{"empty handoff log", 0, []string{fmt.Sprintf("HANDOFF %s %s 0 %08x", id, HandoffLog, crc32.Checksum(nil, castagnoli))}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store, ds := NewCrashStore(nil), NewDataset()
			srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{Store: store, CompactEvery: c.compactEvery})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for _, h := range c.first {
				if reply := pipeRequest(srv, h, nil); !strings.HasPrefix(reply, "OK") {
					t.Fatalf("%s: %q", h, reply)
				}
			}
			if reply := pipeRequest(srv, chunk(0, stream), stream); !strings.HasPrefix(reply, "OK") {
				t.Fatalf("chunk: %q", reply)
			}
			live, _ := ds.Get(id)
			files, _ := recoverServerState(store)
			if !bytes.Equal(files[id], live) {
				t.Errorf("recovered log %q, live %q", files[id], live)
			}
		})
	}
}
