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

// Program opcodes for FuzzReplicaChunk, read like FuzzIncrementalIngest's.
const (
	repExtend   = iota // append 1–3 records to the phone's log and CHUNK the new bytes
	repMidFrame        // append records and CHUNK up to a cut inside a frame
	repRewind          // rewind to a non-boundary offset with rewritten bytes past it
	repReset           // master reset: a fresh log CHUNKed from 0
	repDrop            // the owner's next replication never reaches the replica
	repRestart         // crash the replica and restart it on its store
	repFin             // FIN the stream; the owner replicates the FIN
	repUpload          // the study-end upload: CHUNK the whole phone log at offset 0
	repCount
)

// FuzzReplicaChunk drives an owner server and a replica server, each over
// in-memory connections, through random chunkings, rewinds, resets, FINs,
// uploads, dropped replications and replica restarts. The owner's
// replication hook forwards each committed CHUNK as a HANDOFF chunk and,
// when the replica answers stale, installs the whole stream as a chunk at
// offset 0. After every op the replica answered stale exactly when its
// stream was not the prefix the chunk was cut against, holds the owner's
// stream unless the replication was dropped, holds the dataset bytes and
// acked records of the whole-stream PutMerged reference, and recovering
// its store reproduces its live state.
func FuzzReplicaChunk(f *testing.F) {
	for _, ops := range [][]byte{
		{repExtend, 1, repMidFrame, 2, 3, repExtend, 0},                                           // chunks ending mid-frame
		{repExtend, 2, repRewind, 5, 1, repExtend, 0, repRewind, 9, 0},                            // rewinds to non-boundary offsets
		{repExtend, 1, repDrop, repExtend, 1, repExtend, 0},                                       // a missed write: stale, then healed
		{repExtend, 2, repDrop, repRewind, 9, 0, repExtend, 1},                                    // a missed rewind: the prefix differs
		{repExtend, 1, repRestart, repExtend, 1, repDrop, repExtend, 0, repRestart, repExtend, 0}, // replica crash and restart
		{repExtend, 2, repReset, 2, repExtend, 0},                                                 // a master reset
		{repExtend, 1, repDrop, repFin, repReset, 1, repExtend, 0},                                // a missed FIN
		{repExtend, 1, repUpload, repExtend, 0, repFin, repExtend, 1},                             // uploads and FINs between chunks
		// Everything mixed.
		{repExtend, 2, repMidFrame, 1, 4, repDrop, repRewind, 3, 1, repRestart, repExtend, 1, repUpload,
			repDrop, repFin, repExtend, 2, repReset, 0, repRestart, repDrop, repMidFrame, 0, 2, repExtend, 0},
	} {
		f.Add(append([]byte{0}, ops...))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		runReplicaProgram(t, prog)
	})
}

// replicaModel is what the replica must hold: its stream, and the dataset
// and acked ledger of the whole-stream reference.
type replicaModel struct {
	stream []byte
	ref    *refServer
}

// applied books a stream the replica took (a chunk or a heal).
func (m *replicaModel) applied(id string, stream []byte) {
	m.stream = append([]byte(nil), stream...)
	m.ref.led.record(id, core.ParseRecords(stream), nil)
	refMerge(m.ref.files, id, stream)
}

func runReplicaProgram(t *testing.T, prog []byte) {
	const id = "phone-01"
	p := &ingestProgram{prog: prog}
	p.rng = sim.NewRand(uint64(p.next()))
	model := &replicaModel{ref: newRefServer()}

	store, led, repDS := NewCrashStore(nil), NewLedger(), NewDataset()
	repCfg := ServerConfig{Store: store, CompactEvery: 1 << 10, ledger: led} // compactions every few ops
	rep, err := NewServerWith("127.0.0.1:0", repDS, repCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rep.Close() }()

	// The owner's hook runs on its handler goroutine: it notes what went
	// wrong and the op loop reports it. synced is whether the replica's
	// stream must equal the owner's: no chunk or FIN replication since the
	// last one that reached it was dropped.
	drop, synced := false, true
	var hookErr error
	hook := func(op, dev string, state []byte, off int) bool {
		if drop {
			drop, synced = false, false
			return true
		}
		switch op {
		case ReplicateChunk:
			stale := off > len(model.stream) || !bytes.Equal(model.stream[:off], state[:off])
			reply := pipeRequest(rep, "HANDOFF "+dev+" "+chunkHandoffArgs(state, off), state[off:])
			if got := strings.HasPrefix(reply, "ERR stale"); got != stale {
				hookErr = fmt.Errorf("chunk at %d onto a %d-byte replica stream: reply %q, stale expected %v", off, len(model.stream), reply, stale)
				return false
			}
			if stale {
				reply = pipeRequest(rep, "HANDOFF "+dev+" "+chunkHandoffArgs(state, 0), state)
			}
			if want := fmt.Sprintf("OK %d\n", len(state)); reply != want {
				hookErr = fmt.Errorf("chunk at %d: reply %q, want %q", off, reply, want)
				return false
			}
			model.applied(dev, state)
			synced = true
		case ReplicateFin:
			pipeRequest(rep, "FIN "+dev, nil)
			model.stream, synced = nil, true
		}
		return true
	}
	owner, err := NewServerWith("127.0.0.1:0", NewDataset(), ServerConfig{Replicate: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	send := func(off int, data []byte) {
		if len(data) == 0 {
			return
		}
		if reply := pipeRequest(owner, fmt.Sprintf("CHUNK %s %d %d %08x", id, off, len(data), crc32.Checksum(data, castagnoli)), data); !strings.HasPrefix(reply, "OK") && hookErr == nil {
			hookErr = fmt.Errorf("CHUNK at %d: reply %q", off, reply)
		}
		p.stream = append(p.stream[:off:off], data...)
	}
	sendTail := func() { send(len(p.stream), p.phone[len(p.stream):]) }

	for step := 0; len(p.prog) > 0 && step < 64; step++ {
		op := p.next() % repCount
		switch op {
		case repExtend:
			p.appendRecords(1 + p.next()%3)
			sendTail()
		case repMidFrame:
			p.appendRecords(1 + p.next()%3)
			last := p.frames[len(p.frames)-1]
			if cut := last + 1 + p.next()*7%(len(p.phone)-last-1); cut > len(p.stream) {
				send(len(p.stream), p.phone[len(p.stream):cut])
			}
		case repRewind:
			off := 0
			if len(p.stream) > 0 {
				off = p.next() * 7 % len(p.stream)
			}
			p.restart(0, off)
			p.appendRecords(1 + p.next()%2)
			send(off, p.phone[off:])
		case repReset:
			p.now += 1000
			p.restart(0, 0)
			p.appendRecords(1 + p.next()%3)
			send(0, p.phone)
		case repDrop:
			drop = true
		case repRestart:
			rep.Close()
			store.Crash()
			if rep, err = NewServerWith("127.0.0.1:0", repDS, repCfg); err != nil {
				t.Fatal(err)
			}
		case repFin:
			pipeRequest(owner, "FIN "+id, nil)
			p.stream = nil
		case repUpload:
			send(0, p.phone)
		}
		if hookErr != nil {
			t.Fatalf("step %d (op %d): %v", step, op, hookErr)
		}
		checkReplicaState(t, step, op, rep, repDS, store, model)
		if ownerStream, _ := owner.Stream(id); synced && !bytes.Equal(model.stream, ownerStream) {
			t.Fatalf("step %d (op %d): replica stream %d bytes, owner's %d, and no replication was dropped", step, op, len(model.stream), len(ownerStream))
		}
	}
}

func checkReplicaState(t *testing.T, step, op int, rep *Server, ds *Dataset, store *CrashStore, model *replicaModel) {
	t.Helper()
	const id = "phone-01"
	if got, _ := rep.Stream(id); !bytes.Equal(got, model.stream) {
		t.Fatalf("step %d (op %d): replica stream %q, want %q", step, op, got, model.stream)
	}
	files := ds.snapshot()
	if !reflect.DeepEqual(files, model.ref.files) {
		t.Fatalf("step %d (op %d): replica dataset differs from the whole-stream merge\n got: %q\nwant: %q", step, op, files, model.ref.files)
	}
	if got, want := rep.AckedKeys(id), model.ref.led.keys(id); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (op %d): replica acked %d records, want %d", step, op, len(got), len(want))
	}
	copyStore := NewCrashStore(nil)
	for _, name := range []string{snapName, walName} {
		copyStore.WriteFile(name, store.Read(name))
		copyStore.Sync(name)
	}
	gotFiles, gotStreams := recoverServerState(copyStore)
	rep.mu.Lock()
	liveStreams := make(map[string][]byte, len(rep.streams))
	for dev, st := range rep.streams {
		liveStreams[dev] = append([]byte(nil), st...)
	}
	rep.mu.Unlock()
	if !reflect.DeepEqual(gotFiles, files) {
		t.Fatalf("step %d (op %d): recovered replica dataset differs from its live one\n got: %q\nwant: %q", step, op, gotFiles, files)
	}
	if !reflect.DeepEqual(gotStreams, liveStreams) {
		t.Fatalf("step %d (op %d): recovered replica streams differ from its live ones\n got: %q\nwant: %q", step, op, gotStreams, liveStreams)
	}
}
