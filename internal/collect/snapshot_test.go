package collect

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// encodeSnapshot is the reference snapshot encoder: each entry's payload
// concatenated into a scratch buffer and framed by core.AppendFrame, logs
// first, then streams, each in sorted device order.
func encodeSnapshot(files, streams map[string][]byte) []byte {
	var out []byte
	for k, m := range [2]map[string][]byte{files, streams} {
		for _, dev := range sortedKeys(m) {
			payload := append([]byte(snapKinds[k]+" "+dev+"\n"), m[dev]...)
			out = core.AppendFrame(out, payload)
		}
	}
	return out
}

// randomSnapState draws up to n devices' logs and streams, some of them
// empty, and sometimes no streams at all.
func randomSnapState(rng *sim.Rand, n int) (files, streams map[string][]byte) {
	files, streams = map[string][]byte{}, map[string][]byte{}
	draw := func() []byte {
		b := make([]byte, rng.Intn(3)*rng.Intn(300))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		dev := fmt.Sprintf("phone-%03d", rng.Intn(1000))
		files[dev] = draw()
		if rng.Intn(2) == 0 {
			streams[dev] = draw()
		}
	}
	if rng.Intn(4) == 0 {
		streams = map[string][]byte{}
	}
	return files, streams
}

// sameFiles reports whether a and b hold the same keys with the same bytes
// (an empty entry may be nil on one side).
func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

// TestSnapshotPartsMatchReference: the parts of a state concatenate to the
// reference bytes, whatever frames the state before left behind (the draws
// reuse device names over fresh arrays), and recovery decodes them back.
func TestSnapshotPartsMatchReference(t *testing.T) {
	rng := sim.NewRand(22)
	var fr snapFrames
	for i := 0; i < 300; i++ {
		files, streams := randomSnapState(rng, 40)
		parts := fr.parts(files, streams)
		if got, want := bytes.Join(parts, nil), encodeSnapshot(files, streams); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d logs, %d streams): snapshot parts differ from the reference", i, len(files), len(streams))
		}
		store := NewCrashStore(nil)
		store.WriteFile(snapName, parts...)
		store.Sync(snapName)
		gotFiles, gotStreams := recoverServerState(store)
		if !sameFiles(gotFiles, files) || !sameFiles(gotStreams, streams) {
			t.Fatalf("case %d: recovery of the snapshot differs from the encoded state", i)
		}
	}
}

// compactionCost measures one compaction of an unchanged state of n
// devices' logs of size bytes each, a third of them with a stream, plus
// one empty log: its allocation count and the bytes it allocates (the
// least of three averages, so a stray runtime allocation cannot add).
func compactionCost(n, size int) (allocs float64, allocBytes uint64) {
	ds, streams := NewDataset(), map[string][]byte{}
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("phone-%04d", i)
		ds.files[dev] = bytes.Repeat([]byte{byte('a' + i%26)}, size)
		if i%3 == 0 {
			streams[dev] = ds.files[dev][:size/2]
		}
	}
	ds.files["phone-empty"] = []byte{}
	s := &Server{ds: ds, streams: streams, cfg: ServerConfig{Store: NewCrashStore(nil), CompactEvery: -1, ledger: NewLedger()}}
	compact := func() {
		s.mu.Lock()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	compact() // the first compaction checksums every byte
	allocs = testing.AllocsPerRun(10, compact)
	allocBytes = math.MaxUint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			compact()
		}
		runtime.ReadMemStats(&after)
		allocBytes = min(allocBytes, (after.TotalAlloc-before.TotalAlloc)/10)
	}
	return allocs, allocBytes
}

// TestCompactionAllocationsFlat: a compaction after no change allocates
// the same, however many bytes the shard holds: the snapshot aliases the
// logs and streams and reuses every frame header, so what it allocates
// (the part lists and the sorted key slices) scales with the entries only.
func TestCompactionAllocationsFlat(t *testing.T) {
	const devices = 16
	smallAllocs, smallBytes := compactionCost(devices, 1<<10)
	largeAllocs, largeBytes := compactionCost(devices, 1<<20)
	if smallAllocs != largeAllocs || smallBytes != largeBytes {
		t.Errorf("compaction of %d devices: %v allocs, %d bytes at 1 KiB each; %v allocs, %d bytes at 1 MiB each; want the same",
			devices, smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

// snapshotParts returns the parts the store holds for a file, as the last
// WriteFile gave them.
func snapshotParts(st *CrashStore, name string) [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	f := st.files[name]
	if f == nil {
		return nil
	}
	return append(f.synced.parts[:len(f.synced.parts):len(f.synced.parts)], f.synced.own)
}

// checkSnapshotOps drives a durable server through the ops prog encodes —
// append at a stream's end, rewind, FIN, log and stream handoff, and a
// Dataset.Put — and compacts after each. Every snapshot must flatten to the
// reference encoding of the live state, every earlier snapshot must still
// hold its bytes (nothing the store aliases is written in place), and
// recovering the store must give the live state back.
func checkSnapshotOps(t *testing.T, prog []byte) {
	devs := [...]string{"phone-a", "phone-b", "phone-c"}
	store, ds := NewCrashStore(nil), NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.mu.Lock()
	srv.cfg.CompactEvery = -1 // every maybeCompactLocked compacts
	srv.mu.Unlock()

	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	var clock int64
	records := func(framed bool) []byte {
		var out []byte
		for n := next() % 4; n > 0; n-- {
			// Mostly later than the last record, sometimes earlier: both
			// the append step and the whole merge run.
			clock += int64(next()%8) - 2
			r := core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", PType: int(next() % 4), Time: clock}
			if framed {
				out = append(out, core.FrameRecord(r)...)
			} else {
				out = core.AppendRecordLine(out, r)
			}
		}
		return out
	}
	// send issues "CHUNK <dev> <off>" or "HANDOFF <dev> <kind>" with data.
	send := func(verb, dev, arg string, data []byte) {
		header := fmt.Sprintf("%s %s %s %d %08x", verb, dev, arg, len(data), crc32.Checksum(data, castagnoli))
		if reply := pipeRequest(srv, header, data); !strings.HasPrefix(reply, "OK") {
			t.Fatalf("%s: %q", header, reply)
		}
	}

	type written struct {
		parts [][]byte
		bytes []byte
	}
	var snaps []written
	for step := 0; len(prog) > 0; step++ {
		op := next()
		dev := devs[op%3]
		srv.mu.Lock()
		n := len(srv.streams[dev])
		srv.mu.Unlock()
		switch op / 3 % 6 {
		case 0:
			send("CHUNK", dev, fmt.Sprint(n), records(true))
		case 1:
			send("CHUNK", dev, fmt.Sprint(int(next())*n/256), records(true))
		case 2:
			if reply := pipeRequest(srv, "FIN "+dev, nil); !strings.HasPrefix(reply, "OK") {
				t.Fatalf("FIN %s: %q", dev, reply)
			}
		case 3:
			send("HANDOFF", dev, HandoffLog, records(false))
		case 4:
			send("HANDOFF", dev, HandoffStream, records(true))
		case 5:
			ds.Put(dev, records(false))
		}

		srv.mu.Lock()
		srv.maybeCompactLocked()
		ds.mu.Lock()
		want := encodeSnapshot(ds.files, srv.streams)
		files, streams := cloneFiles(ds.files), cloneFiles(srv.streams)
		ds.mu.Unlock()
		srv.mu.Unlock()

		parts := snapshotParts(store, snapName)
		if got := bytes.Join(parts, nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d (op %d on %s): snapshot differs from the reference encoding\n got %q\nwant %q", step, op/3%6, dev, got, want)
		}
		for i, w := range snaps {
			if !bytes.Equal(bytes.Join(w.parts, nil), w.bytes) {
				t.Fatalf("step %d: the snapshot of step %d changed in place", step, i)
			}
		}
		snaps = append(snaps, written{parts, want})
		gotFiles, gotStreams := recoverServerState(store)
		if !sameFiles(gotFiles, files) || !sameFiles(gotStreams, streams) {
			t.Fatalf("step %d: recovering the store differs from the live state", step)
		}
	}
}

// cloneFiles deep-copies a per-device byte map.
func cloneFiles(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// snapOpsProgram draws a random op program for checkSnapshotOps.
func snapOpsProgram(rng *sim.Rand) []byte {
	prog := make([]byte, 32+rng.Intn(160))
	for i := range prog {
		prog[i] = byte(rng.Intn(256))
	}
	return prog
}

// TestSnapshotPartsRandomOps runs the compaction differential over random
// op programs.
func TestSnapshotPartsRandomOps(t *testing.T) {
	rng := sim.NewRand(2027)
	for i := 0; i < 100; i++ {
		checkSnapshotOps(t, snapOpsProgram(rng))
	}
}

// FuzzSnapshotParts is the compaction differential over fuzzed op programs
// (checkSnapshotOps), so a fuzz burst searches for an op sequence that
// makes a snapshot part change under the store or miss the reference.
func FuzzSnapshotParts(f *testing.F) {
	rng := sim.NewRand(27)
	for i := 0; i < 8; i++ {
		f.Add(snapOpsProgram(rng))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		checkSnapshotOps(t, prog)
	})
}

// TestSnapshotReadDuringIngest reads the installed snapshot while CHUNKs
// extend the logs and streams it aliases: the server only appends past
// the bytes the store reads, so under the race detector the two never
// touch the same memory, and every read recovers to a consistent state.
func TestSnapshotReadDuringIngest(t *testing.T) {
	store, ds := NewCrashStore(nil), NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{Store: store, CompactEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		reads := 0
		defer func() { read <- reads }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if snap := store.Read(snapName); len(snap) > 0 {
				if rec := core.RecoverLog(snap); rec.Dirty {
					t.Errorf("a snapshot read during ingest has %d damaged frames", rec.Lost)
					return
				}
				reads++
			}
		}
	}()
	offs := map[string]int{}
	for i := 0; i < 400; i++ {
		dev := fmt.Sprintf("phone-%d", i%3)
		data := core.FrameRecord(core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", Time: int64(i)})
		header := fmt.Sprintf("CHUNK %s %d %d %08x", dev, offs[dev], len(data), crc32.Checksum(data, castagnoli))
		if reply := pipeRequest(srv, header, data); !strings.HasPrefix(reply, "OK") {
			t.Fatalf("%s: %q", header, reply)
		}
		offs[dev] += len(data)
	}
	close(done)
	if reads := <-read; reads == 0 {
		t.Log("no snapshot read overlapped the ingest")
	}
}
