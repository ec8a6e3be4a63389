package collect

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"symfail/internal/sim"
)

// TestHandoffDurableBeforeAck: a HANDOFF OK is the same durable promise as
// a CHUNK OK — the replicated payload must be WAL-synced before the peer
// is told OK, so a crash right after the reply cannot lose it.
func TestHandoffDurableBeforeAck(t *testing.T) {
	store := NewCrashStore(sim.NewRand(1))
	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	logBytes := walTestRecords(1, 2, 3)
	if err := Handoff(srv.Addr(), "dev", HandoffLog, logBytes); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if got := srv.Handoffs(); got != 1 {
		t.Errorf("Handoffs() = %d, want 1", got)
	}
	if data, ok := ds.Get("dev"); !ok || !bytes.Equal(data, logBytes) {
		t.Errorf("dataset after handoff = %q, want %q", data, logBytes)
	}
	if keys := srv.AckedKeys("dev"); len(keys) != 3 {
		t.Errorf("handoff acked %d record keys, want 3", len(keys))
	}

	// The OK is on the wire; tear every un-synced tail and recover.
	srv.Close()
	store.Crash()
	files, _ := RecoverState(store)
	if !bytes.Equal(files["dev"], logBytes) {
		t.Errorf("recovered log = %q, want %q — the OK outran the WAL sync", files["dev"], logBytes)
	}
}

// TestHandoffStreamInstallAndOutrank: a replicated chunk stream installs
// only when the receiver has no live stream for the device; a later replica
// is skipped (OK, no commit, no WAL append) because the live stream — the
// one an uploader is actually mid-conversation with — outranks it.
func TestHandoffStreamInstallAndOutrank(t *testing.T) {
	store := NewCrashStore(sim.NewRand(2))
	srv, err := NewServerWith("127.0.0.1:0", NewDataset(), ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first := walTestRecords(10, 11)
	if err := Handoff(srv.Addr(), "dev", HandoffStream, first); err != nil {
		t.Fatalf("first stream handoff: %v", err)
	}
	if st, ok := srv.Stream("dev"); !ok || !bytes.Equal(st, first) {
		t.Fatalf("stream not installed: %q", st)
	}

	appends := store.Appends()
	second := walTestRecords(20)
	if err := Handoff(srv.Addr(), "dev", HandoffStream, second); err != nil {
		t.Fatalf("second stream handoff: %v", err)
	}
	if st, _ := srv.Stream("dev"); !bytes.Equal(st, first) {
		t.Errorf("live stream replaced by a migrated copy: %q", st)
	}
	if got := store.Appends(); got != appends {
		t.Errorf("skipped handoff appended to the WAL (%d -> %d appends)", appends, got)
	}
	if got := srv.Handoffs(); got != 1 {
		t.Errorf("Handoffs() = %d after a skip, want 1", got)
	}
}

// TestMigratedWALDoubleRecoveryWriteFree mirrors PR 4's recovery
// normalisation test for the handoff entries: recovering a store whose WAL
// holds migrated state (log and stream replicas, plus a torn tail) once
// normalises it; recovering it again returns the same maps byte for byte
// and writes nothing — the fleet reads a dying shard's state this way and
// the restart's own recovery must then find a clean store.
func TestMigratedWALDoubleRecoveryWriteFree(t *testing.T) {
	store := NewCrashStore(sim.NewRand(3))
	append2 := func(e walEntry) { store.Append(walName, encodeWALEntry(e)) }
	append2(walEntry{Op: opHandoff, Dev: "a", Data: walTestRecords(1, 2)})
	append2(walEntry{Op: opHandoffStream, Dev: "b", Data: walTestRecords(5)})
	// A second stream replica for b must be a replay no-op: the first
	// install made the live stream non-empty.
	append2(walEntry{Op: opHandoffStream, Dev: "b", Data: walTestRecords(6, 7)})
	store.Sync(walName)
	// Torn tail: an append the crash cut short.
	store.Append(walName, encodeWALEntry(walEntry{Op: opHandoff, Dev: "c", Data: walTestRecords(9)}))
	store.Crash()

	files1, streams1 := RecoverState(store)
	if !bytes.Equal(streams1["b"], walTestRecords(5)) {
		t.Errorf("stream replay guard broken: %q", streams1["b"])
	}
	if _, ok := files1["c"]; ok {
		t.Error("torn (never-synced, never-acked) handoff resurrected")
	}
	state1 := storeState(store)
	appends, syncs := store.Appends(), store.Syncs()

	files2, streams2 := RecoverState(store)
	if !reflect.DeepEqual(files1, files2) || !reflect.DeepEqual(streams1, streams2) {
		t.Error("double recovery of a migrated WAL is not byte-identical")
	}
	if !reflect.DeepEqual(state1, storeState(store)) {
		t.Error("second recovery changed the medium")
	}
	if store.Appends() != appends || store.Syncs() != syncs {
		t.Errorf("second recovery wrote: appends %d->%d, syncs %d->%d",
			appends, store.Appends(), syncs, store.Syncs())
	}
}

// TestChunkHandoffArgsMatchesSprintf pins the HANDOFF chunk header, now
// built with strconv appends, to the fmt.Sprintf form it replaced, byte
// for byte, over empty, short and long streams and every offset class.
func TestChunkHandoffArgsMatchesSprintf(t *testing.T) {
	streams := [][]byte{nil, []byte("x"), []byte("a short stream\n"), bytes.Repeat([]byte("0123456789abcdef"), 4096)}
	for _, stream := range streams {
		for _, off := range []int{0, len(stream) / 3, len(stream) / 2, len(stream)} {
			want := fmt.Sprintf("%s %d %08x %d %08x", HandoffChunk, len(stream)-off,
				crc32.Checksum(stream[off:], castagnoli), off, crc32.Checksum(stream, castagnoli))
			if got := chunkHandoffArgs(stream, off); got != want {
				t.Errorf("%d-byte stream at %d: header %q, want %q", len(stream), off, got, want)
			}
		}
	}
	for _, v := range []uint32{0, 1, 0xf, 0x10, 0xdeadbeef, 0xffffffff} {
		if got, want := string(appendHex8(nil, v)), fmt.Sprintf("%08x", v); got != want {
			t.Errorf("appendHex8(%#x) = %q, want %q", v, got, want)
		}
	}
	if err := NewChunkHandoff("phone-01", []byte("abc"), 4).Send("127.0.0.1:1"); err == nil {
		t.Error("a chunk past the stream's end was sent")
	}
}
