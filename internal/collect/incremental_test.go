package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// The incremental CHUNK path (settled offset, append step) against the
// whole-stream algorithm it replaced, kept here as the oracle: every CHUNK
// re-parses the device's whole stream into the ledger and PutMerges it into
// the dataset, and WAL replay merges the whole stream after every chunk
// entry.

// refMerge is the whole-log PutMerged the CHUNK path used to call.
func refMerge(files map[string][]byte, id string, data []byte) {
	old, ok := files[id]
	if !ok {
		files[id] = append([]byte(nil), data...)
		return
	}
	files[id] = EncodeRecords(MergeRecords(core.ParseRecords(old), core.ParseRecords(data)))
}

// refServer models a collection server on the old algorithm.
type refServer struct {
	files   map[string][]byte
	streams map[string][]byte
	led     *Ledger
	tapped  map[string]bool
}

func newRefServer() *refServer {
	return &refServer{files: map[string][]byte{}, streams: map[string][]byte{}, led: NewLedger(), tapped: map[string]bool{}}
}

func (r *refServer) tap(_ string, rec core.Record) {
	r.tapped[string(core.AppendRecordLine(nil, rec))] = true
}

func (r *refServer) ack(id string, data []byte) {
	r.led.uploads.Add(1)
	r.led.record(id, core.ParseRecords(data), r.tap)
}

func (r *refServer) chunk(id string, off int, data []byte, replicate, quorum bool) {
	stream := r.streams[id]
	if off < len(stream) {
		r.led.tapUnacked(id, stream, r.tap)
	}
	stream = append(stream[:off:off], data...)
	r.streams[id] = stream
	if !replicate || quorum {
		r.ack(id, stream)
	}
	refMerge(r.files, id, stream)
}

func (r *refServer) upload(id string, data []byte, replicate, quorum bool) {
	if !replicate || quorum {
		r.ack(id, data)
	}
	refMerge(r.files, id, data)
}

func (r *refServer) fin(id string) {
	if stream, ok := r.streams[id]; ok {
		r.led.tapUnacked(id, stream, r.tap)
		delete(r.streams, id)
	}
}

func (r *refServer) handoff(id, kind string, data []byte) {
	if kind == HandoffStream && len(r.streams[id]) > 0 {
		return
	}
	if kind == HandoffStream {
		r.streams[id] = append([]byte(nil), data...)
	}
	r.led.record(id, core.ParseRecords(data), r.tap)
	refMerge(r.files, id, data)
}

// refRecover is WAL recovery on the old algorithm: a whole-stream merge
// after every chunk entry, on PutMerged's rule for a first write.
func refRecover(store *CrashStore) (files, streams map[string][]byte) {
	files, streams = map[string][]byte{}, map[string][]byte{}
	merge := func(dev string, add []byte) { refMerge(files, dev, add) }
	for _, payload := range core.RecoverLog(store.Read(snapName)).Payloads {
		e, ok := decodeSnapEntry(payload)
		if !ok {
			continue
		}
		switch e.Kind {
		case "log":
			files[e.Dev] = append([]byte(nil), e.Data...)
		case "stream":
			streams[e.Dev] = append([]byte(nil), e.Data...)
		}
	}
	for _, payload := range core.RecoverLog(store.Read(walName)).Payloads {
		var e walEntry
		if json.Unmarshal(payload, &e) != nil || e.Dev == "" {
			continue
		}
		switch e.Op {
		case opChunk:
			st := streams[e.Dev]
			if e.Off > len(st) {
				continue
			}
			st = append(st[:e.Off:e.Off], e.Data...)
			streams[e.Dev] = st
			merge(e.Dev, st)
		case opUpload, opHandoff:
			merge(e.Dev, e.Data)
		case opFin:
			delete(streams, e.Dev)
		case opHandoffStream:
			if len(streams[e.Dev]) == 0 {
				streams[e.Dev] = append([]byte(nil), e.Data...)
			}
			merge(e.Dev, e.Data)
		}
	}
	return files, streams
}

// Program opcodes for FuzzIncrementalIngest. A program is a byte string:
// each op is one byte (its value mod ingCount) followed by the argument
// bytes it draws; an exhausted program reads zeros.
const (
	ingExtend   = iota // append 1–3 records to the phone's log and CHUNK the new bytes
	ingMidFrame        // append records and CHUNK up to a cut inside a frame
	ingCorrupt         // append a frame with a flipped payload byte, then CHUNK
	ingResend          // rewind to a non-boundary offset and re-send the same bytes
	ingRewrite         // rewind to a non-boundary offset with rewritten bytes past it
	ingReset           // master reset: a fresh log with later times, CHUNKed from 0
	ingRotate          // rotation: a suffix of the old log plus new records, from 0
	ingTieBelow        // a record at the last record's time whose bytes sort before it
	ingPut             // Dataset.Put of a few old records between chunks
	ingFin             // FIN the stream
	ingUpload          // UPLOAD the phone log from a drawn frame
	ingHandoff         // HANDOFF the phone log from a drawn frame, as a log or a stream
	ingQuorum          // flip the replication hook's answer
	ingCount
)

// ingestProgram runs an op program against a live server and the
// reference model side by side.
type ingestProgram struct {
	prog   []byte
	rng    *sim.Rand
	now    int64
	boot   int
	phone  []byte      // the phone's log: what the next chunk is cut from
	frames []int       // frame start offsets in phone
	stream []byte      // the server's stream (mirrors refServer.streams)
	quorum atomic.Bool // the replication hook's answer
}

func (p *ingestProgram) next() int {
	if len(p.prog) == 0 {
		return 0
	}
	b := p.prog[0]
	p.prog = p.prog[1:]
	return int(b)
}

// record makes the next record from the program's own RNG, so that op
// arguments keep their meaning; a third of the records repeat the previous
// timestamp.
func (p *ingestProgram) record() core.Record {
	p.now += int64(p.rng.Intn(3))
	if p.rng.Bool(0.5) {
		p.boot++
		return core.Record{Kind: core.KindBoot, Time: p.now, Boot: p.boot, Detected: core.DetectedShutdown}
	}
	return core.Record{Kind: core.KindPanic, Time: p.now, Category: "KERN-EXEC", PType: p.rng.Intn(5), Apps: []string{"Phone.app"}}
}

func (p *ingestProgram) appendFrame(frame []byte) {
	p.frames = append(p.frames, len(p.phone))
	p.phone = append(p.phone, frame...)
}

func (p *ingestProgram) appendRecords(n int) {
	for i := 0; i < n; i++ {
		p.appendFrame(core.FrameRecord(p.record()))
	}
}

// restart replaces the phone log with its bytes [lo, hi).
func (p *ingestProgram) restart(lo, hi int) {
	var frames []int
	for _, f := range p.frames {
		if f >= lo && f < hi {
			frames = append(frames, f-lo)
		}
	}
	p.phone = append([]byte(nil), p.phone[lo:hi]...)
	p.frames = frames
}

// tail returns the phone log from a drawn frame start: the whole log or a
// rotated one, which may lack records the stream holds.
func (p *ingestProgram) tail() []byte {
	if len(p.frames) == 0 {
		return p.phone
	}
	return p.phone[p.frames[p.next()%len(p.frames)]:]
}

// FuzzIncrementalIngest drives one device through random chunkings,
// rewinds, resets, rotations, corrupt frames, equal-time records, Puts,
// FINs, uploads and handoffs against a live server, with and without a
// replication hook, and requires the dataset bytes, the acked ledger and
// the set of tapped records to equal the whole-stream reference after every
// op. It then recovers the server's WAL, whole and torn, and requires the
// incremental replay to equal the reference replay.
func FuzzIncrementalIngest(f *testing.F) {
	// Seed every named case on both commit paths (the first byte picks
	// the path and the record seed); argument bytes follow their op.
	for mode := byte(0); mode < 2; mode++ {
		for _, ops := range [][]byte{
			{ingMidFrame, 2, 3, ingExtend, 0},                                                      // a chunk ends mid-frame
			{ingExtend, 1, ingCorrupt, ingExtend, 1, ingExtend, 2},                                 // a corrupt region mid-stream
			{ingExtend, 2, ingResend, 5, ingRewrite, 9, 0, ingExtend, 0},                           // rewinds to non-boundary offsets
			{ingExtend, 2, ingReset, 2, ingExtend, 0},                                              // a master reset
			{ingExtend, 2, ingExtend, 2, ingRotate, 3, 0, ingExtend, 0},                            // a rotation: duplicates, the fallback
			{ingExtend, 0, ingTieBelow, ingTieBelow, ingExtend, 0},                                 // equal times, bytes out of order
			{ingExtend, 2, ingPut, 1, ingExtend, 0, ingPut, 0, ingUpload, 2, ingExtend, 0},         // Puts between chunks
			{ingExtend, 2, ingFin, ingHandoff, 1, 0, ingExtend, 0, ingHandoff, 0, 1, ingExtend, 1}, // FIN, stream handoff
			{ingExtend, 1, ingQuorum, ingExtend, 1, ingMidFrame, 0, 2, ingQuorum, ingExtend, 1},    // missed quorums
			// Everything mixed.
			{ingExtend, 2, ingMidFrame, 1, 4, ingCorrupt, ingReset, 1, ingRotate, 1, 2, ingTieBelow, ingPut, 0,
				ingExtend, 2, ingFin, ingUpload, 1, ingHandoff, 0, 1, ingExtend, 1, ingResend, 200, ingExtend, 2},
		} {
			f.Add(append([]byte{mode}, ops...))
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		runIngestProgram(t, prog)
	})
}

// pipeRequest serves one request on srv over an in-memory connection and
// returns the reply once the handler has finished: a fuzz run issues
// thousands of verbs, more than the host's ephemeral TCP ports would allow.
func pipeRequest(srv *Server, header string, body []byte) string {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.handle(server)
		close(done)
	}()
	go func() {
		_, _ = fmt.Fprintf(client, "%s\n", header)
		_, _ = client.Write(body)
	}()
	reply, _ := io.ReadAll(client)
	<-done
	return string(reply)
}

func runIngestProgram(t *testing.T, prog []byte) {
	const id = "phone-01"
	p := &ingestProgram{prog: prog}
	p.quorum.Store(true)
	mode := p.next() // bit 0 picks the commit path, the rest seeds the records
	replicate := mode%2 == 1
	p.rng = sim.NewRand(uint64(mode / 2))
	ref := newRefServer()

	var mu sync.Mutex
	tapped := map[string]bool{}
	store := NewCrashStore(nil)
	cfg := ServerConfig{
		Store:        store,
		CompactEvery: 4 << 10, // a few compactions: replay starts from a snapshot
		OnRecord: func(_ string, r core.Record) {
			mu.Lock()
			tapped[string(core.AppendRecordLine(nil, r))] = true
			mu.Unlock()
		},
	}
	if replicate {
		cfg.Replicate = func(op, _ string, _ []byte, _ int) bool { return op == ReplicateFin || p.quorum.Load() }
	}
	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	send := func(off int, data []byte) {
		if len(data) == 0 {
			return
		}
		pipeRequest(srv, fmt.Sprintf("CHUNK %s %d %d %08x", id, off, len(data), crc32.Checksum(data, castagnoli)), data)
		ref.chunk(id, off, data, replicate, p.quorum.Load())
		p.stream = append(p.stream[:off:off], data...)
	}
	sendTail := func() { send(len(p.stream), p.phone[len(p.stream):]) }
	rewindPoint := func() int {
		if len(p.stream) == 0 {
			return 0
		}
		return p.next() * 7 % len(p.stream)
	}

	for step := 0; len(p.prog) > 0 && step < 64; step++ {
		op := p.next() % ingCount
		switch op {
		case ingExtend:
			p.appendRecords(1 + p.next()%3)
			sendTail()
		case ingMidFrame:
			p.appendRecords(1 + p.next()%3)
			last := p.frames[len(p.frames)-1]
			cut := last + 1 + p.next()*7%(len(p.phone)-last-1)
			if cut > len(p.stream) {
				send(len(p.stream), p.phone[len(p.stream):cut])
			}
		case ingCorrupt:
			frame := core.FrameRecord(p.record())
			frame[len(frame)/2] ^= 0x01
			p.appendFrame(frame)
			sendTail()
		case ingResend:
			off := rewindPoint()
			send(off, p.phone[off:])
		case ingRewrite:
			off := rewindPoint()
			p.restart(0, off)
			p.appendRecords(1 + p.next()%2)
			send(off, p.phone[off:])
		case ingReset:
			p.now += 1000
			p.restart(0, 0)
			p.appendRecords(1 + p.next()%3)
			send(0, p.phone)
		case ingRotate:
			if len(p.frames) > 0 {
				p.restart(p.frames[p.next()%len(p.frames)], len(p.phone))
			}
			p.appendRecords(1 + p.next()%2)
			send(0, p.phone)
		case ingTieBelow:
			// A boot record at the last record's time sorts before a panic
			// record there ({"kind":"boot"... < {"kind":"panic"...).
			p.appendFrame(core.FrameRecord(core.Record{Kind: core.KindPanic, Time: p.now, Category: "USER", PType: 0}))
			p.boot++
			p.appendFrame(core.FrameRecord(core.Record{Kind: core.KindBoot, Time: p.now, Boot: p.boot}))
			sendTail()
		case ingPut:
			recs := core.ParseRecords(p.phone)
			keep := EncodeRecords(recs[:min(len(recs), p.next()%3)])
			ds.Put(id, keep)
			ref.files[id] = append([]byte(nil), keep...)
		case ingFin:
			pipeRequest(srv, "FIN "+id, nil)
			ref.fin(id)
			p.stream = nil
		case ingUpload:
			log := p.tail()
			pipeRequest(srv, fmt.Sprintf("UPLOAD %s %d %08x", id, len(log), crc32.Checksum(log, castagnoli)), log)
			ref.upload(id, log, replicate, p.quorum.Load())
		case ingHandoff:
			kind := HandoffLog
			if p.next()%2 == 1 {
				kind = HandoffStream
			}
			log := p.tail()
			pipeRequest(srv, fmt.Sprintf("HANDOFF %s %s %d %08x", id, kind, len(log), crc32.Checksum(log, castagnoli)), log)
			ref.handoff(id, kind, log)
			if st, ok := ref.streams[id]; ok {
				p.stream = st
			}
		case ingQuorum:
			p.quorum.Store(!p.quorum.Load())
		}
		checkIngestState(t, step, op, ds, srv, ref, &mu, tapped)
	}

	// WAL replay, whole and with a torn tail, against the reference replay.
	wal := store.Read(walName)
	for _, cut := range []int{len(wal), len(wal) * 2 / 3, len(wal) - 5} {
		if cut < 0 {
			continue
		}
		a, b := NewCrashStore(nil), NewCrashStore(nil)
		for _, st := range []*CrashStore{a, b} {
			st.WriteFile(snapName, store.Read(snapName))
			st.WriteFile(walName, wal[:cut])
			st.Sync(snapName)
			st.Sync(walName)
		}
		gotFiles, gotStreams := recoverServerState(a)
		wantFiles, wantStreams := refRecover(b)
		if !reflect.DeepEqual(gotFiles, wantFiles) || !reflect.DeepEqual(gotStreams, wantStreams) {
			t.Fatalf("replay of %d/%d WAL bytes differs from the whole-stream replay\n got: %q\nwant: %q", cut, len(wal), gotFiles, wantFiles)
		}
	}
}

func checkIngestState(t *testing.T, step, op int, ds *Dataset, srv *Server, ref *refServer, mu *sync.Mutex, tapped map[string]bool) {
	t.Helper()
	for _, id := range sortedKeys(ref.files) {
		got, _ := ds.Get(id)
		if !bytes.Equal(got, ref.files[id]) {
			t.Fatalf("step %d (op %d): dataset bytes differ from the whole-stream merge\n got: %q\nwant: %q", step, op, got, ref.files[id])
		}
	}
	if got, want := ds.Devices(), sortedKeys(ref.files); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (op %d): dataset devices %v, want %v", step, op, got, want)
	}
	if got, want := srv.cfg.ledger.devices(), ref.led.devices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (op %d): acked devices %v, want %v", step, op, got, want)
	}
	for _, id := range ref.led.devices() {
		if got, want := srv.AckedKeys(id), ref.led.keys(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (op %d): %d acked keys, want %d", step, op, len(got), len(want))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(tapped, ref.tapped) {
		t.Fatalf("step %d (op %d): tapped %d records, want %d", step, op, len(tapped), len(ref.tapped))
	}
}

// TestChunkCostFlatInStreamLength pins the incremental CHUNK path's cost:
// acknowledging one record allocates about the same whether the device's
// stream holds 50 records or 2,000. The whole-stream path re-parsed,
// re-merged and re-encoded every byte of the stream on every CHUNK, so its
// cost grew with the stream. Each point is the cheapest of three windows of
// 50 one-record CHUNKs, which keeps an occasional slice growth of the
// stream or the log (amortised O(1)) out of the comparison. The server has
// no store, so no compaction lands in a window.
func TestChunkCostFlatInStreamLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurements are distorted under -race")
	}
	srv, _ := newTestServer(t)
	const id = "phone-01"
	var now int64
	frames := func(n int) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			now++
			out = append(out, core.FrameRecord(core.Record{Kind: core.KindPanic, Time: now, Category: "KERN-EXEC", PType: 3, Apps: []string{"Phone.app"}})...)
		}
		return out
	}
	off := 0
	send := func(chunk []byte) {
		n, err := NetTransport{}.UploadChunk(srv.Addr(), id, off, chunk)
		if err != nil {
			t.Fatal(err)
		}
		off = n
	}
	perChunk := func() float64 {
		best := -1.0
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				send(frames(1))
			}
			runtime.ReadMemStats(&after)
			if b := float64(after.TotalAlloc-before.TotalAlloc) / 50; best < 0 || b < best {
				best = b
			}
		}
		return best
	}
	send(frames(50))
	short := perChunk()
	send(frames(2000 - 200))
	long := perChunk()
	t.Logf("bytes allocated per CHUNK: %.0f at ~50 records, %.0f at ~2,000", short, long)
	if long > 2*short {
		t.Errorf("a CHUNK at ~2,000 records allocates %.0f bytes, more than twice the %.0f at ~50: CHUNK cost grows with the stream", long, short)
	}
}

// TestConcurrentChunksOneDevice races CHUNKs for one device from four
// clients through the quorum path, which releases the server mutex while
// the replication hook reads the stream: a CHUNK may land while another is
// replicating, extend the stream in place, or rewind it. Run it under
// -race. Whatever interleaving happens, every acknowledged record and every
// record of the final stream is in the dataset, and the log is canonical.
func TestConcurrentChunksOneDevice(t *testing.T) {
	const id = "phone-01"
	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{
		Replicate: func(_, _ string, state []byte, _ int) bool {
			_ = crc32.Checksum(state, castagnoli) // read every byte while s.mu is released
			runtime.Gosched()
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var n int
				_, _ = fmt.Sscanf(pipeRequest(srv, "OFFSET "+id, nil), "OK %d", &n)
				frame := core.FrameRecord(core.Record{Kind: core.KindPanic, Time: int64(i), Category: "USER", PType: c})
				pipeRequest(srv, fmt.Sprintf("CHUNK %s %d %d %08x", id, n, len(frame), crc32.Checksum(frame, castagnoli)), frame)
			}
		}()
	}
	wg.Wait()
	log, _ := ds.Get(id)
	have := map[string]bool{}
	for _, r := range core.ParseRecords(log) {
		have[string(core.AppendRecordLine(nil, r))] = true
	}
	stream, _ := srv.Stream(id)
	want := srv.AckedKeys(id)
	for _, r := range core.ParseRecords(stream) {
		want = append(want, string(core.AppendRecordLine(nil, r)))
	}
	for _, k := range want {
		if !have[k] {
			t.Fatalf("acked or streamed record %q missing from the dataset", k)
		}
	}
	if canon := EncodeRecords(MergeRecords(core.ParseRecords(log))); !bytes.Equal(log, canon) {
		t.Fatal("dataset log is not canonical")
	}
}
