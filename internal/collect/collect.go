// Package collect implements the study's log-collection infrastructure:
// instrumented phones periodically upload their consolidated Log Files to a
// collection server, where the analysis pipeline picks them up (the paper
// references an automated software infrastructure for transferring Log
// Files from the phones [1]).
//
// The transfer protocol is a deliberately simple line-oriented TCP
// exchange with six verbs:
//
//	client: CHUNK <device-id> <offset> <n-bytes> <crc32c-hex>\n  then n raw bytes
//	server: OK <stream-length>\n on success, ERR <reason>\n otherwise
//
//	client: OFFSET <device-id>\n
//	server: OK <stream-length> <crc32c-hex>\n
//
//	client: FIN <device-id>\n
//	server: OK\n
//
//	peer:   HANDOFF <device-id> log|stream <n-bytes> <crc32c-hex>\n  then n raw bytes
//	server: OK\n on success, ERR <reason>\n otherwise
//
//	peer:   HANDOFF <device-id> chunk <n-bytes> <crc32c-hex> <offset> <stream-crc32c-hex>\n  then n raw bytes
//	server: OK <stream-length>\n on success, ERR stale <stream-length>\n or ERR <reason>\n otherwise
//
//	peer:   PING\n
//	server: OK\n
//
//	client: QUERY <name> [args...]\n
//	server: OK <answer>\n on success, ERR <reason>\n otherwise
//
// HANDOFF is the server-to-server leg of the sharded collection fleet
// (see the fleet package): a dying or rebalancing shard replicates one
// device's merged log ("log") or live chunk stream ("stream") onto a peer,
// and a write-quorum owner replicates each committed CHUNK onto its
// replicas' streams ("chunk": the chunk's bytes at its offset, with the
// CRC-32C of the stream they must produce).
// Handoffs go through the same WAL-sync-before-ACK commit path as chunks,
// so a successful handoff is the same durable promise, and merging stays
// idempotent — a handoff re-sent after a lost acknowledgement, or of data
// the peer already holds, never duplicates records. PING is the fleet's
// heartbeat probe: a one-line liveness check the failure detector beats
// against, answered without touching any durable state.
//
// With a write-quorum fleet (ServerConfig.Replicate) a CHUNK is
// additionally forwarded to the device's rendezvous successors after the
// local WAL sync, and the OK goes on the wire only once a write quorum of
// replicas has synced it; a quorum that cannot be met is a retryable
// "ERR quorum ..." rejection (see IsBelowQuorum), never a false promise.
// Replicas hold the device's stream, so after its owner dies the next
// CHUNK continues on a replica at the acknowledged offset.
//
// CHUNK appends to a per-device server-side stream at a client-stated offset,
// which is what makes uploads resumable: after a failure only the tail past
// the last acknowledged offset is re-sent, and OFFSET lets a client that lost
// an acknowledgement ask where the server actually stands. The final
// collection at study end sends the whole log as one CHUNK at offset 0, which
// replaces the stream. FIN retires a device's chunk stream once the client is
// done with it. QUERY is a read of the live analysis tier
// (ServerConfig.Query). The CRC-32C field guards every transfer — phones
// upload over flaky bearers — and a chunk is acknowledged only after its
// checksum verifies, so an acknowledgement is a durable promise: with a
// durable server (ServerConfig.Store) the verb is write-ahead-logged and
// synced before the ACK is written to the wire, and a Supervisor-restarted
// server replays the log, so even a crash on the very next instruction cannot
// take an acknowledged record with it (see wal.go, supervisor.go).
//
// Merging is idempotent per device: records are deduplicated by their
// serialized form, so re-sending data the server already holds (the
// inevitable outcome of a lost acknowledgement) never duplicates records.
//
// A connection carries one request/reply exchange after another. The
// server keeps serving it after every OK reply whose request it read in
// full, and closes it after an ERR, a reply it could not send, a read
// error, or when it shuts down or its incarnation dies; an OK it sends
// while it is hanging up is followed by an empty line, so the client does
// not reuse the connection. Clients keep idle connections in a Pool.
package collect

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"symfail/internal/core"
)

// castagnoli is the CRC-32C table used for upload integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxUploadBytes bounds a single upload (a phone's full study log is well
// under a megabyte; anything larger is a protocol violation).
const MaxUploadBytes = 16 << 20

// ErrTooLarge is returned when an upload exceeds MaxUploadBytes.
var ErrTooLarge = errors.New("collect: upload too large")

// Dataset is the collected study data: the raw Log File bytes per device.
//
// Dataset is safe for concurrent use: every access to files happens under
// mu, and both Put and Get copy, so no caller ever holds a slice aliasing
// the stored bytes. Sharded fleet execution has phones on different worker
// goroutines uploading concurrently; per-device entries are independent
// keys, so concurrent uploads from different devices commute and
// same-device merges serialise under mu through the canonical,
// order-independent MergeRecords.
type Dataset struct {
	mu    sync.Mutex
	files map[string][]byte
	// canonical marks the devices whose log a CHUNK merge (putStream) left
	// canonical, with every record of the server's chunk stream up to its
	// settled offset in it — what lets the next CHUNK append instead of
	// re-merging. Put, a first raw store and resetTo clear it; PutMerged
	// keeps it, because a merge only adds records and a log that a Put
	// emptied of stream records must not be appended to.
	canonical map[string]bool
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{files: make(map[string][]byte), canonical: make(map[string]bool)}
}

// Put stores (replaces) a device's log.
func (ds *Dataset) Put(deviceID string, data []byte) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.files[deviceID] = append([]byte(nil), data...)
	delete(ds.canonical, deviceID)
}

// Get returns a copy of a device's log.
func (ds *Dataset) Get(deviceID string) ([]byte, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	data, ok := ds.files[deviceID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Devices returns the device IDs present, sorted.
func (ds *Dataset) Devices() []string {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([]string, 0, len(ds.files))
	for id := range ds.files {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Records parses a device's log into records.
func (ds *Dataset) Records(deviceID string) []core.Record {
	data, ok := ds.Get(deviceID)
	if !ok {
		return nil
	}
	return core.ParseRecords(data)
}

// AllRecords parses every device's log, keyed by device ID.
func (ds *Dataset) AllRecords() map[string][]core.Record {
	out := make(map[string][]core.Record)
	for _, id := range ds.Devices() {
		out[id] = ds.Records(id)
	}
	return out
}

// Stream iterates the dataset one device at a time in sorted device order,
// calling begin once per device and then fn once per record in log order —
// the bounded-memory alternative to AllRecords: only one device's log bytes
// are materialised at a time and no record slice is ever built. Either
// callback may be nil. An error from a callback stops the iteration and is
// returned. The device set is snapshotted up front; concurrent Puts for new
// devices are not picked up mid-stream.
func (ds *Dataset) Stream(begin func(deviceID string) error, fn func(deviceID string, r core.Record) error) error {
	for _, id := range ds.Devices() {
		if begin != nil {
			if err := begin(id); err != nil {
				return err
			}
		}
		if fn == nil {
			continue
		}
		data, ok := ds.Get(id)
		if !ok {
			continue
		}
		deviceID := id
		if err := core.ScanRecords(data, func(r core.Record) error {
			return fn(deviceID, r)
		}); err != nil {
			return err
		}
	}
	return nil
}

// MaxHeaderBytes caps the protocol header line; a client that streams an
// unterminated header cannot make the server buffer unboundedly.
const MaxHeaderBytes = 256

// ServerConfig tunes a collection server beyond its defaults. The zero
// value is the legacy in-memory server: no durable store, streams capped at
// MaxUploadBytes.
type ServerConfig struct {
	// MaxStreamBytes caps each device's server-side chunk stream; a CHUNK
	// that would grow the stream past the cap is rejected with
	// "ERR stream too large" (the stream itself is kept, and FIN drops it),
	// so a looping client cannot grow server memory without bound. Zero
	// means MaxUploadBytes.
	MaxStreamBytes int
	// Store, when set, makes the server durable: every accepted verb is
	// appended to a write-ahead log on the store and synced before the ACK
	// is written to the wire, and construction replays the store (see
	// wal.go). Nil keeps the legacy purely in-memory server.
	Store *CrashStore
	// CompactEvery triggers snapshot compaction once the WAL exceeds this
	// many bytes (zero means 1 MiB). Only meaningful with a Store.
	CompactEvery int

	// Replicate, when set, is the write-quorum hook: after a verb has
	// been WAL-synced locally (and merged into the dataset), the server
	// calls it with the committed state and acknowledges on the wire only
	// when it returns true. Op ReplicateChunk carries a CHUNK's resulting
	// stream and the chunk's offset, so the chunk is state[off:]; op
	// ReplicateFin carries nil. A false return means the write quorum was
	// not met: the server replies a retryable "ERR quorum ..." instead of
	// OK, keeping the committed state local (a later retry or
	// anti-entropy repair re-replicates it; the canonical merge makes
	// that harmless). ReplicateFin results are ignored (stream retirement
	// is best-effort bookkeeping). Op ReplicateFetch (state nil) is the
	// gap fill: a CHUNK at offset off past the end of this server's
	// stream asks the hook to install a peer's longer copy of the stream
	// here (by HANDOFF) before the gap is re-checked; it returns whether
	// one was installed.
	// The hook runs WITHOUT the server mutex held — it performs network
	// round-trips to peer shards, and two shards replicating to each other
	// while each holds its own mutex would deadlock — so the server
	// re-checks its own liveness when the hook returns.
	// Nil keeps the exact single-copy commit path.
	Replicate func(op, deviceID string, state []byte, off int) bool

	// OnRecord, when set, is the live record tap the streaming
	// accumulators hang off. Its contract: every record that enters the
	// dataset is delivered at least once. The server calls it for every
	// record it newly acknowledges. A record a killed predecessor
	// WAL-synced but never acked is recovered into the dataset unacked; it
	// is delivered when the client re-sends it or extends its stream, and
	// at the latest when that stream is rewound or retired by FIN (which
	// every finished upload conversation reaches). The acked ledger is the
	// one dedup stage in front of the tap: it remembers every record it
	// acked or tapped, it spans a supervisor's lifetime, and a fleet shares
	// it across its shards, so each record is delivered once per ledger.
	// The one exception is a supervisor resumed on an existing non-empty
	// store: its ledger starts empty, so it re-taps what an earlier process
	// delivered. Delivery order is not guaranteed, even within a device,
	// so consumers must tolerate reordering (stream.LiveStudy keeps its
	// exact MTBF behind a per-device order guard, and its day fold's
	// counts are order-free, though its uptime is not; the exact analysis
	// accumulators re-read the merged Dataset at study end instead). It
	// runs under the server mutex, so it must be fast and must not call
	// back into the server.
	OnRecord func(deviceID string, r core.Record)

	// Query, when set, serves the read-only QUERY verb: the hook receives
	// the query name and arguments and returns a single-line answer
	// (conventionally compact JSON). Like PING, a QUERY is outside the
	// supervisor's request accounting — reads must not advance injected kill
	// schedules — and touches no durable state. The hook runs WITHOUT the
	// server mutex held (it typically locks a live accumulator of its own),
	// so it must be safe under concurrent uploads. Nil rejects QUERY with
	// "ERR queries not served".
	Query func(name string, args []string) (string, error)

	// monitor is the supervisor hook: it schedules injected crashes and is
	// told when this incarnation dies. ledger is the acknowledgement state
	// every incarnation of one supervisor (and every shard of a fleet)
	// shares. Only the Supervisor sets them; NewServerWith makes a fresh
	// ledger when none is given.
	monitor *Supervisor
	ledger  *Ledger
}

// maxWALScratch bounds the WAL entry scratch a server keeps between
// verbs: a larger entry (a whole log uploaded or handed off) is not kept.
const maxWALScratch = 64 << 10

// DefaultCompactEvery is the WAL size that triggers compaction when
// ServerConfig.CompactEvery is zero.
const DefaultCompactEvery = 1 << 20

// Server is the collection server. It serves every connection on its own
// goroutine and is safe under concurrent uploads from a sharded fleet:
// streams are only touched under mu, per-device streams are independent
// keys — two phones uploading simultaneously cannot observe each other —
// and one phone's uploads are serialised by the uploader that issues them.
// The dataset and the acked ledger guard themselves, but every server-side
// mutation of them happens under mu too (lock order: Server.mu, then
// ledger.mu or Dataset.mu), so a compaction snapshot can never miss a verb
// that was already WAL-synced.
type Server struct {
	ds       *Dataset
	listener net.Listener
	wg       sync.WaitGroup
	cfg      ServerConfig

	mu     sync.Mutex
	closed bool
	// dead marks an incarnation killed by an injected crash: every handler
	// bails out at the next mu acquisition and the supervisor's replacement
	// owns the state from then on.
	dead bool
	// streams holds the per-device chunk streams (the raw bytes the device
	// has pushed so far).
	streams map[string][]byte
	// settled holds, per device stream, the end of the leading run of intact
	// frames whose records are already in the ledger and in the dataset
	// (core.ScanSettled): a CHUNK parses only the stream past it. A rewind,
	// FIN or stream handoff resets it, and every incarnation starts at 0.
	settled map[string]int
	// frames is the last compaction's frame per snapshot entry: the
	// snapshot aliases the logs and streams, and the next compaction
	// checksums only the bytes added since (see snapFrames.parts).
	frames snapFrames
	// wal is the scratch every WAL entry is encoded into (see
	// appendWALEntry); the store copies what it is given.
	wal []byte

	// connMu guards conns, every open connection mapped to whether it is
	// serving a request (busy) or waiting for the next one, and hangUp,
	// set when the server closes or the incarnation dies: from then on no
	// connection starts another request.
	connMu sync.Mutex
	conns  map[net.Conn]bool
	hangUp bool
}

// NewServer starts a collection server on addr ("127.0.0.1:0" picks a free
// port) feeding the given dataset.
func NewServer(addr string, ds *Dataset) (*Server, error) {
	return NewServerWith(addr, ds, ServerConfig{})
}

// NewServerWith starts a collection server with explicit configuration.
// When cfg.Store is set the server first recovers it — snapshot plus WAL
// replay, see recoverServerState — and resets the dataset to the recovered
// state, so restarting on the same store resumes exactly where the synced
// prefix left off.
func NewServerWith(addr string, ds *Dataset, cfg ServerConfig) (*Server, error) {
	if cfg.MaxStreamBytes <= 0 {
		cfg.MaxStreamBytes = MaxUploadBytes
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if cfg.ledger == nil {
		cfg.ledger = NewLedger()
	}
	s := &Server{
		ds:      ds,
		cfg:     cfg,
		streams: make(map[string][]byte),
		settled: make(map[string]int),
		conns:   make(map[net.Conn]bool),
	}
	if cfg.Store != nil {
		files, streams := recoverServerState(cfg.Store)
		ds.resetTo(files)
		s.streams = streams
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Uploads returns the number of successful uploads served (by every
// incarnation, for a supervised server).
func (s *Server) Uploads() int { return int(s.cfg.ledger.uploads.Load()) }

// Close stops accepting connections, closes the idle ones and waits for
// in-flight requests, whose connections close after their replies.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.listener.Close()
	s.hangUpIdle()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// serverConn is one connection the server serves, with the buffers its
// requests reuse: the header reader, a CHUNK's body and the records it
// scans, and the reply line. Only the connection's own goroutine uses
// them, so they stay put while a quorum round trip releases s.mu.
type serverConn struct {
	net.Conn
	r    *bufio.Reader
	body []byte
	recs []core.RecordLine
	line []byte
}

// maxBodyScratch and maxRecsScratch bound the buffers a connection keeps
// for its next request: a larger body or scan (a whole log uploaded or
// handed off) gets arrays of its own, so idle connections hold little.
const (
	maxBodyScratch = 16 << 10
	maxRecsScratch = 128
)

// handle serves one connection's requests in turn until one leaves the
// connection out of protocol sync or the server hangs up.
func (s *Server) handle(raw net.Conn) {
	defer s.forget(raw)
	defer raw.Close()
	conn := &serverConn{Conn: raw, r: bufio.NewReader(raw)}
	for s.setBusy(raw, false) {
		// One stalled or malicious phone must not wedge the accept loop:
		// each request, and each wait for the next, happens under a
		// deadline, the header line is length-capped and the payload size
		// is bounded before allocation.
		//symlint:allow determinism network I/O deadline on a real socket, not simulated time
		if err := conn.SetDeadline(time.Now().Add(connDeadline)); err != nil {
			return
		}
		header, err := readLine(conn.r, MaxHeaderBytes)
		if err != nil {
			fmt.Fprintf(conn, "ERR %v\n", err)
			return
		}
		// A request that arrives as the server hangs up dies unanswered,
		// like one in flight when a process crashes, and is not counted.
		if !s.setBusy(raw, true) || !s.serve(conn, strings.Fields(string(header))) {
			return
		}
	}
}

// serve answers one request and reports whether the connection is still
// in protocol sync: true only after an OK reply with the request's body
// read in full.
func (s *Server) serve(conn *serverConn, fields []string) bool {
	if len(fields) == 0 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	if s.cfg.monitor != nil {
		// The supervisor counts recognised requests to schedule its next
		// injected kill. Called with no locks held.
		switch fields[0] {
		case "CHUNK", "OFFSET", "FIN", "HANDOFF":
			s.cfg.monitor.beginRequest(s)
		}
	}
	switch fields[0] {
	case "CHUNK":
		return s.handleChunk(conn, fields)
	case "OFFSET":
		return s.handleOffset(conn, fields)
	case "FIN":
		return s.handleFin(conn, fields)
	case "HANDOFF":
		return s.handleHandoff(conn, fields)
	case "PING":
		return s.handlePing(conn)
	case "QUERY":
		return s.handleQuery(conn, fields)
	}
	fmt.Fprint(conn, "ERR bad header\n")
	return false
}

// setBusy marks conn as serving a request (busy) or waiting for the next
// one. It reports false once the server is hanging up: conn must then
// close without starting another request.
func (s *Server) setBusy(conn net.Conn, busy bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.hangUp {
		return false
	}
	s.conns[conn] = busy
	return true
}

func (s *Server) forget(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// hangUpIdle stops every connection from starting another request and
// closes the idle ones; a busy one closes after its reply.
func (s *Server) hangUpIdle() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.hangUp = true
	for conn, busy := range s.conns {
		if !busy {
			_ = conn.Close()
		}
	}
}

// replyOK writes one OK reply line, built in the connection's line buffer
// (see okLine), and reports whether the connection stays in protocol sync.
// A server that is hanging up follows the line with an empty one in the
// same write, which tells the client that this connection carries no
// further request.
func (s *Server) replyOK(conn *serverConn, line []byte) bool {
	s.connMu.Lock()
	keep := !s.hangUp
	s.connMu.Unlock()
	line = append(line, '\n')
	if !keep {
		line = append(line, '\n')
	}
	conn.line = line[:0]
	_, err := conn.Write(line)
	return keep && err == nil
}

// okLine starts a reply line in the connection's buffer: "OK" and then
// what the caller appends.
func (c *serverConn) okLine() []byte { return append(c.line[:0], "OK"...) }

// handlePing answers the fleet's heartbeat probe. A PING is deliberately
// outside the supervisor's request accounting (it must not advance injected
// kill schedules) and touches no durable state: it only proves the
// incarnation is alive and serving requests. Beats ride pooled
// connections, so it does not prove the server still accepts new ones. A
// dead incarnation answers nothing, and the beat counts as a miss.
func (s *Server) handlePing(conn *serverConn) bool {
	if s.isDead() {
		return false
	}
	return s.replyOK(conn, conn.okLine())
}

// handleQuery serves the read-only query verb. Like PING it is outside the
// supervisor's request accounting and touches no durable state: the answer
// comes entirely from the ServerConfig.Query hook (the live analysis tier),
// never from the dataset or the WAL.
func (s *Server) handleQuery(conn *serverConn, fields []string) bool {
	if s.isDead() {
		return false
	}
	if s.cfg.Query == nil {
		fmt.Fprint(conn, "ERR queries not served\n")
		return false
	}
	if len(fields) < 2 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	out, err := s.cfg.Query(fields[1], fields[2:])
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return false
	}
	if strings.ContainsAny(out, "\n") {
		fmt.Fprint(conn, "ERR query answer not single-line\n")
		return false
	}
	return s.replyOK(conn, append(append(conn.okLine(), ' '), out...))
}

// isDead reports whether this incarnation has been crashed (marked dead by
// an injected kill, before its supervisor finishes the restart).
func (s *Server) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// readLine reads one \n-terminated line of fewer than max bytes, without
// the '\n', from what r buffers: the line is valid until the next read
// from r. It reads from the connection only while no '\n' is buffered,
// and fails as soon as max bytes are buffered without one.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	for {
		buf, _ := r.Peek(r.Buffered())
		if i := bytes.IndexByte(buf[:min(len(buf), max)], '\n'); i >= 0 {
			line, _ := r.ReadSlice('\n')
			return line[:i], nil
		}
		if len(buf) >= max {
			return nil, errors.New("header too long")
		}
		if _, err := r.Peek(len(buf) + 1); err != nil {
			return nil, fmt.Errorf("short header: %v", err)
		}
	}
}

// readBody reads a size-declared, checksum-guarded payload into the
// connection's body buffer, which the next request reuses: every verb
// that keeps the bytes copies them. A body over maxBodyScratch gets an
// array of its own.
func (c *serverConn) readBody(size int, sum uint32) ([]byte, error) {
	var data []byte
	if size <= maxBodyScratch {
		c.body = slices.Grow(c.body[:0], size)
		data = c.body[:size]
	} else {
		data = make([]byte, size)
	}
	if _, err := io.ReadFull(c.r, data); err != nil {
		return nil, fmt.Errorf("short body: %v", err)
	}
	if got := crc32.Checksum(data, castagnoli); got != sum {
		return nil, fmt.Errorf("checksum mismatch: got %08x want %08x", got, sum)
	}
	return data, nil
}

// replicateQuorumLocked is the quorum path of CHUNK: with the chunk
// already WAL-synced and merged into the dataset (kept coupled with
// the commit so a compaction snapshot can never miss WAL-synced data), it
// releases the server mutex for the replication round-trips. Returns true
// with s.mu held again on a met quorum, for the caller's acknowledgement
// bookkeeping; false when the caller must return without replying OK
// (crash consumed the request, incarnation died during replication, or
// quorum failed — the retryable ERR is already written), with s.mu
// released.
func (s *Server) replicateQuorumLocked(conn *serverConn, id string, state []byte, off int) bool {
	if s.maybeCompactLocked() {
		return false
	}
	s.mu.Unlock()
	met := s.cfg.Replicate(ReplicateChunk, id, state, off)
	s.mu.Lock()
	if s.dead {
		// A fleet kill landed on this incarnation while it replicated; the
		// replacement owns the state now, and this connection dies without
		// a reply like any crashed request.
		s.mu.Unlock()
		return false
	}
	if !met {
		s.mu.Unlock()
		fmt.Fprint(conn, "ERR quorum not met: committed locally, not replicated (retryable)\n")
		return false
	}
	return true
}

// handleChunk appends a verified chunk to the device's stream at the
// client-stated offset and acknowledges the resulting stream length. An
// offset short of the stream end rewinds it (the client re-synced after a
// log rotation or master reset); an offset past the end is a gap the
// client must resolve via OFFSET, unless a fleet peer holds the missing
// bytes (the ReplicateFetch gap fill); a chunk that would grow the stream
// past the configured cap is rejected outright (the stream is kept — FIN
// is how a finished stream is dropped). The accepted chunk goes through
// applyChunkLocked.
func (s *Server) handleChunk(conn *serverConn, fields []string) bool {
	if len(fields) != 5 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	id := fields[1]
	offset, err := strconv.Atoi(fields[2])
	if err != nil || offset < 0 || offset > MaxUploadBytes {
		fmt.Fprint(conn, "ERR bad offset\n")
		return false
	}
	size, err := strconv.Atoi(fields[3])
	if err != nil || size < 0 || offset+size > MaxUploadBytes {
		fmt.Fprint(conn, "ERR bad size\n")
		return false
	}
	crc, err := strconv.ParseUint(fields[4], 16, 32)
	if err != nil {
		fmt.Fprint(conn, "ERR bad checksum\n")
		return false
	}
	if offset+size > s.cfg.MaxStreamBytes {
		fmt.Fprint(conn, "ERR stream too large\n")
		return false
	}
	chunk, err := conn.readBody(size, uint32(crc))
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return false
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	if offset > len(s.streams[id]) && s.cfg.Replicate != nil {
		// This shard may have just taken the device over from an owner
		// that died, and missed writes a peer replica holds: have the
		// fleet install the peer's stream, then re-check the gap.
		s.mu.Unlock()
		s.cfg.Replicate(ReplicateFetch, id, nil, offset)
		s.mu.Lock()
		if s.dead {
			s.mu.Unlock()
			return false
		}
	}
	if n := len(s.streams[id]); offset > n {
		s.mu.Unlock()
		fmt.Fprintf(conn, "ERR gap: stream at %d, chunk at %d\n", n, offset)
		return false
	}
	return s.applyChunkLocked(conn, id, offset, chunk, false)
}

// applyChunkLocked is the one chunk-apply step, shared by the CHUNK verb
// and a replica's HANDOFF chunk. It places chunk at offset off of the
// device's stream (the caller checked off ≤ len(stream)), WAL-logs and
// syncs it as an opChunk entry, parses the stream past its settled offset
// once and hands those records to both the dataset and the acked ledger,
// then replies "OK <stream-length>". An owner's chunk (replica false) is
// acknowledged as an upload, after the write quorum when the server
// replicates (op ReplicateChunk); a replica's is booked as a handoff and
// never replicated onward. Every record is in the dataset before the ACK,
// so an acknowledgement is a durable promise even if the stream is later
// rewound or the process is killed on the next instruction. Called with
// s.mu held; returns with it released.
func (s *Server) applyChunkLocked(conn *serverConn, id string, off int, chunk []byte, replica bool) bool {
	stream := s.streams[id]
	if off < len(stream) {
		s.cfg.ledger.tapUnacked(id, stream, s.cfg.OnRecord)
	}
	if !s.commitLocked(walEntry{Op: opChunk, Dev: id, Off: off, Data: chunk}) {
		return false
	}
	if off < s.settled[id] {
		delete(s.settled, id) // the rewind rewrites settled bytes
	}
	stream = appendChunk(stream, off, chunk)
	s.streams[id] = stream
	// The records' lines are subslices of stream. They stay valid after the
	// quorum path below releases s.mu: no verb overwrites a stream's bytes
	// below its length (appendChunk extends in place past the end and
	// copies on a rewind; a stream handoff installs a fresh copy), so a
	// concurrent verb cannot change what ackLocked reads. The records
	// themselves are the connection's, and so unshared.
	recs, settled := core.ScanSettled(conn.recs[:0], stream, s.settled[id])
	defer conn.keepRecs(recs)
	if s.cfg.Replicate != nil && !replica {
		s.ds.putStream(id, stream, recs)
		if !s.replicateQuorumLocked(conn, id, stream, off) {
			return false
		}
		s.ackLocked(id, recs)
	} else {
		if replica {
			s.cfg.ledger.handoffs.Add(1)
			s.cfg.ledger.record(id, recs, s.cfg.OnRecord)
		} else {
			s.ackLocked(id, recs)
		}
		s.ds.putStream(id, stream, recs)
		if s.maybeCompactLocked() {
			return false
		}
	}
	// The quorum path released s.mu: a concurrent verb may have replaced
	// the stream since it was scanned, and then settled belongs to the old
	// one. Equal start and length mean equal bytes (see appendChunk).
	if cur := s.streams[id]; len(cur) == len(stream) && (len(cur) == 0 || &cur[0] == &stream[0]) {
		s.settled[id] = settled
	}
	diedAfterAck := s.crashAtLocked(CrashAfterAck)
	if !diedAfterAck {
		s.mu.Unlock()
	}
	return s.replyOK(conn, strconv.AppendInt(append(conn.okLine(), ' '), int64(len(stream)), 10))
}

// keepRecs keeps a scan's slice for the connection's next CHUNK, emptied
// so that it pins no stream, unless it outgrew maxRecsScratch.
func (c *serverConn) keepRecs(recs []core.RecordLine) {
	if cap(recs) > maxRecsScratch {
		c.recs = nil
		return
	}
	clear(recs)
	c.recs = recs[:0]
}

// appendChunk places chunk at offset off of a device stream (off ≤
// len(stream)). An append at the end extends the stream in place, so a
// stream costs amortised O(chunk) per CHUNK; a rewind copies into a fresh
// array. Either way no byte below len(stream) is ever overwritten, so a
// slice of an earlier stream handed out before (a replication in flight, a
// settled scan, a compaction snapshot) keeps its bytes, and two streams with the same first
// element and length hold the same bytes.
func appendChunk(stream []byte, off int, chunk []byte) []byte {
	if off == len(stream) {
		return append(stream, chunk...)
	}
	return append(stream[:off:off], chunk...)
}

// Replicate op values passed to ServerConfig.Replicate.
const (
	// ReplicateChunk forwards a CHUNK: the owner's resulting stream and
	// the chunk's offset — replicas apply state[off:] to their own copy of
	// the stream (HANDOFF chunk).
	ReplicateChunk = "chunk"
	// ReplicateFin propagates a stream retirement (state is nil).
	ReplicateFin = "fin"
	// ReplicateFetch asks for a peer's copy of a stream at least off bytes
	// long to be installed on this server (state is nil).
	ReplicateFetch = "fetch"
)

// HandoffKind values accepted by the HANDOFF verb.
const (
	// HandoffLog replicates a device's merged log — the payload merges into
	// the dataset (Dataset.PutMerged). Crash handoff, rebalancing and repair
	// send it, so a FIN'd device, which has no stream, still moves.
	HandoffLog = "log"
	// HandoffStream replicates a device's live chunk stream so the uploader
	// can keep CHUNKing at its acknowledged offset against the new shard. A
	// server that already has a non-empty stream for the device keeps its
	// own (the uploader is already mid-conversation with it; the sender
	// retains its copy, so skipping the install loses nothing).
	HandoffStream = "stream"
	// HandoffChunk replicates one committed chunk onto a replica's copy of
	// the device's stream: the payload is the chunk's bytes, and the header
	// adds its offset and the CRC-32C of the owner's resulting stream. The
	// replica applies it with the CHUNK verb's own step only when the
	// offset is within its stream and the result has that CRC; otherwise
	// it changes nothing and answers "ERR stale <stream-length>" (it missed
	// a write or a rewind), and the sender installs its whole stream as a
	// chunk at offset 0, which replaces the replica's.
	HandoffChunk = "chunk"
)

// ErrStale is returned by HandoffFrom when the replica's stream is not the
// prefix the chunk was cut against (see HandoffChunk).
var ErrStale = errors.New("collect: replica stream is stale")

// handleHandoff accepts one device's replicated state from a peer server.
// Like a CHUNK, the payload is WAL-logged and synced before the OK goes on
// the wire, and its records join this server's acked ledger: once a peer
// has been told OK, the records are this shard's durable responsibility. A
// chunk handoff goes through applyChunkLocked, the CHUNK verb's own step.
func (s *Server) handleHandoff(conn *serverConn, fields []string) bool {
	if len(fields) != 5 && len(fields) != 7 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	id, kind := fields[1], fields[2]
	if kind != HandoffLog && kind != HandoffStream && kind != HandoffChunk {
		fmt.Fprint(conn, "ERR bad handoff kind\n")
		return false
	}
	if (kind == HandoffChunk) != (len(fields) == 7) {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	size, err := strconv.Atoi(fields[3])
	if err != nil || size < 0 || size > MaxUploadBytes {
		fmt.Fprint(conn, "ERR bad size\n")
		return false
	}
	crc, err := strconv.ParseUint(fields[4], 16, 32)
	if err != nil {
		fmt.Fprint(conn, "ERR bad checksum\n")
		return false
	}
	var off int
	var streamSum uint64
	if kind == HandoffChunk {
		off, err = strconv.Atoi(fields[5])
		if err != nil || off < 0 || off+size > s.cfg.MaxStreamBytes {
			fmt.Fprint(conn, "ERR bad offset\n")
			return false
		}
		if streamSum, err = strconv.ParseUint(fields[6], 16, 32); err != nil {
			fmt.Fprint(conn, "ERR bad checksum\n")
			return false
		}
	}
	data, err := conn.readBody(size, uint32(crc))
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return false
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	if kind == HandoffChunk {
		// Apply only onto the prefix the owner cut the chunk against.
		stream := s.streams[id]
		if off > len(stream) || crc32.Update(crc32.Checksum(stream[:off], castagnoli), castagnoli, data) != uint32(streamSum) {
			n := len(stream)
			s.mu.Unlock()
			fmt.Fprintf(conn, "ERR stale %d\n", n)
			return false
		}
		return s.applyChunkLocked(conn, id, off, data, true)
	}
	if kind == HandoffStream && len(s.streams[id]) > 0 {
		// Nothing committed, nothing to WAL: the live stream outranks the
		// replicated copy (see HandoffStream).
		s.mu.Unlock()
		return s.replyOK(conn, conn.okLine())
	}
	op := opHandoff
	if kind == HandoffStream {
		op = opHandoffStream
	}
	if !s.commitLocked(walEntry{Op: op, Dev: id, Data: data}) {
		return false
	}
	s.cfg.ledger.handoffs.Add(1)
	if kind == HandoffStream {
		s.streams[id] = append([]byte(nil), data...)
		delete(s.settled, id)
	}
	s.cfg.ledger.record(id, core.ParseRecordLines(data), s.cfg.OnRecord)
	s.ds.PutMerged(id, data)
	if s.maybeCompactLocked() {
		return false
	}
	diedAfterAck := s.crashAtLocked(CrashAfterAck)
	if !diedAfterAck {
		s.mu.Unlock()
	}
	return s.replyOK(conn, conn.okLine())
}

// Handoffs returns the peer handoffs the server accepted (every
// incarnation, for a supervised server).
func (s *Server) Handoffs() int { return int(s.cfg.ledger.handoffs.Load()) }

// Stream returns a copy of a device's live chunk stream, if present.
func (s *Server) Stream(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[id]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), st...), true
}

// handleOffset reports how much of the device's stream the server holds.
func (s *Server) handleOffset(conn *serverConn, fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	stream := s.streams[fields[1]]
	n, sum := len(stream), crc32.Checksum(stream, castagnoli)
	s.mu.Unlock()
	line := strconv.AppendInt(append(conn.okLine(), ' '), int64(n), 10)
	return s.replyOK(conn, appendHex8(append(line, ' '), sum))
}

// handleFin retires a device's chunk stream (the client is done uploading,
// typically after the study-end CHUNK of the whole log). The retirement is WAL-logged
// so a restarted server does not resurrect the stream.
func (s *Server) handleFin(conn *serverConn, fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprint(conn, "ERR bad header\n")
		return false
	}
	id := fields[1]
	committed := false
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	if stream, ok := s.streams[id]; ok {
		s.cfg.ledger.tapUnacked(id, stream, s.cfg.OnRecord)
		if !s.commitLocked(walEntry{Op: opFin, Dev: id}) {
			return false
		}
		delete(s.streams, id)
		delete(s.settled, id)
		committed = true
	}
	s.mu.Unlock()
	if committed && s.cfg.Replicate != nil {
		// Propagate the retirement to the replicas so a handed-off stream
		// is not resurrected there. Best-effort: the ACK below promises
		// nothing durable (the study data is already merged and acked).
		_ = s.cfg.Replicate(ReplicateFin, id, nil, 0)
	}
	return s.replyOK(conn, conn.okLine())
}

// commitLocked makes one verb durable: WAL append, then the sync barrier,
// with the supervisor's two pre-ACK crashpoints on either side of the sync.
// Returns false when an injected crash consumed the request — the caller
// must return immediately without replying (s.mu is already released).
// Without a store the verb commits trivially. Caller holds s.mu.
func (s *Server) commitLocked(e walEntry) bool {
	if s.cfg.Store == nil {
		return true
	}
	s.wal = appendWALEntry(s.wal[:0], e)
	s.cfg.Store.Append(walName, s.wal) // copies
	if cap(s.wal) > maxWALScratch {
		s.wal = nil
	}
	if s.crashAtLocked(CrashBeforeWALSync) {
		return false
	}
	s.cfg.Store.Sync(walName)
	if s.crashAtLocked(CrashAfterWALSync) {
		return false
	}
	return true
}

// maybeCompactLocked folds the state into a fresh snapshot once the WAL has
// outgrown the configured bound: write snapshot.tmp (as parts aliasing the
// logs and streams, see snapFrames.parts), sync it, rename it over
// snapshot (the atomic commit point), then truncate the WAL. Two
// crashpoints bracket the commit point. Returns true when an injected
// crash consumed the request (s.mu released). Caller holds s.mu.
func (s *Server) maybeCompactLocked() bool {
	st := s.cfg.Store
	if st == nil || st.Size(walName) <= s.cfg.CompactEvery {
		return false
	}
	s.ds.mu.Lock()
	parts := s.frames.parts(s.ds.files, s.streams)
	s.ds.mu.Unlock()
	st.WriteFile(snapTmpName, parts...)
	st.Sync(snapTmpName)
	if s.crashAtLocked(CrashDuringCompaction) {
		return true
	}
	st.Rename(snapTmpName, snapName)
	if s.crashAtLocked(CrashAfterSnapshotInstall) {
		return true
	}
	st.WriteFile(walName)
	st.Sync(walName)
	s.cfg.ledger.compactions.Add(1)
	return false
}

// crashAtLocked fires an injected crash if the supervisor has armed this
// crashpoint for this incarnation. On a kill the incarnation is marked
// dead, its listener and idle connections closed, the store crashed (tearing un-synced tails),
// s.mu released, and the supervisor told to recover — by the time this
// returns true a replacement server owns the state. Caller holds s.mu.
func (s *Server) crashAtLocked(p Crashpoint) bool {
	if s.cfg.monitor == nil || !s.cfg.monitor.atCrashpoint(s, p) {
		return false
	}
	s.dead = true
	_ = s.listener.Close()
	s.hangUpIdle()
	if s.cfg.Store != nil {
		s.cfg.Store.Crash()
	}
	s.mu.Unlock()
	s.cfg.monitor.serverDied()
	return true
}

// ackLocked books one acknowledged CHUNK: it counts the upload
// and notes recs as acked, firing the OnRecord tap for records no
// incarnation acked before. Caller holds s.mu.
func (s *Server) ackLocked(id string, recs []core.RecordLine) {
	s.cfg.ledger.uploads.Add(1)
	s.cfg.ledger.record(id, recs, s.cfg.OnRecord)
}

// AckedKeys returns the serialized form of every record the server has
// ever acknowledged for a device (every incarnation, for a supervised
// server), sorted. The chaos harness checks each one appears exactly once
// in the final merged dataset.
func (s *Server) AckedKeys(id string) []string { return s.cfg.ledger.keys(id) }

// Handoff replicates one device's state (kind HandoffLog or HandoffStream)
// onto the collection server at addr — the server-to-server leg of fleet
// crash handoff and rebalancing. The receiving server WAL-logs and syncs
// the payload before its OK, so a nil return is the same durable promise an
// upload acknowledgement is.
func Handoff(addr, deviceID, kind string, data []byte) error {
	if kind != HandoffLog && kind != HandoffStream {
		return fmt.Errorf("collect: invalid handoff kind %q", kind)
	}
	return handoff(addr, deviceID, fmt.Sprintf("%s %d %08x", kind, len(data), crc32.Checksum(data, castagnoli)), data)
}

// HandoffFrom replicates stream[off:] — one committed chunk — onto the
// replica at addr (kind HandoffChunk): the replica applies it only if it
// turns the replica's own stream into exactly stream. A replica whose
// stream is not that prefix answers stale and HandoffFrom returns an error
// wrapping ErrStale; HandoffFrom(addr, id, stream, 0) then replaces the
// replica's stream with the whole of stream. A nil return is a durable
// promise, as for Handoff.
func HandoffFrom(addr, deviceID string, stream []byte, off int) error {
	return NewChunkHandoff(deviceID, stream, off).Send(addr)
}

// ChunkHandoff is a HandoffFrom prepared once and sent to several
// replicas: write-time replication offers one committed chunk to every
// replica at once, and its legs share one header (and the two CRCs in it)
// instead of formatting it per leg.
type ChunkHandoff struct {
	deviceID string
	header   string // past the device ID; see chunkHandoffArgs
	chunk    []byte
	err      error
}

// NewChunkHandoff prepares the HANDOFF of stream[off:] for deviceID. An
// offset outside the stream fails every Send.
func NewChunkHandoff(deviceID string, stream []byte, off int) ChunkHandoff {
	if off < 0 || off > len(stream) {
		return ChunkHandoff{err: fmt.Errorf("collect: handoff offset %d outside a %d-byte stream", off, len(stream))}
	}
	return ChunkHandoff{deviceID: deviceID, header: chunkHandoffArgs(stream, off), chunk: stream[off:]}
}

// Send offers the chunk to the replica at addr, with HandoffFrom's
// contract.
func (c ChunkHandoff) Send(addr string) error {
	if c.err != nil {
		return c.err
	}
	return handoff(addr, c.deviceID, c.header, c.chunk)
}

// chunkHandoffArgs is the HANDOFF chunk header past the device ID for
// stream[off:]: "chunk <len> <crc> <off> <streamcrc>", lengths in decimal
// and CRC-32Cs as eight lowercase hex digits.
func chunkHandoffArgs(stream []byte, off int) string {
	var buf [64]byte
	b := append(buf[:0], HandoffChunk...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(stream)-off), 10)
	b = append(b, ' ')
	b = appendHex8(b, crc32.Checksum(stream[off:], castagnoli))
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(off), 10)
	b = append(b, ' ')
	b = appendHex8(b, crc32.Checksum(stream, castagnoli))
	return string(b)
}

// appendHex8 appends v as exactly eight lowercase hex digits (%08x).
func appendHex8(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// handoff sends one HANDOFF verb: the header past the device ID, then data.
func handoff(addr, deviceID, header string, data []byte) error {
	if len(data) > MaxUploadBytes {
		return ErrTooLarge
	}
	if err := checkDeviceID(deviceID); err != nil {
		return err
	}
	reply, err := defaultPool.RoundTrip(addr, "HANDOFF "+deviceID+" "+header, data)
	if err != nil {
		return err
	}
	switch {
	case reply == "OK" || strings.HasPrefix(reply, "OK "):
		return nil
	case strings.HasPrefix(reply, "ERR stale"):
		return fmt.Errorf("%w: %s", ErrStale, reply)
	default:
		return fmt.Errorf("collect: server rejected handoff: %s", reply)
	}
}

// PutMerged stores a device's log, preserving records the previous copy
// had but the new one lost — after a master reset the phone re-uploads a
// freshly started log, and the server must not forget the pre-reset study
// data. Merging goes through MergeRecords, the canonical order-independent
// merge, so the stored bytes do not depend on upload scheduling.
func (ds *Dataset) PutMerged(deviceID string, data []byte) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	old, ok := ds.files[deviceID]
	if !ok {
		ds.files[deviceID] = append([]byte(nil), data...)
		return
	}
	ds.files[deviceID] = mergeStream(old, false, data, nil) // not canonical: the whole merge
}

// putStream is PutMerged for a CHUNK: stream is the device's chunk stream
// and suffix its records past the settled offset, the only ones not
// already in the log (see mergeStream). The stored bytes are the ones
// PutMerged(deviceID, stream) would store.
func (ds *Dataset) putStream(deviceID string, stream []byte, suffix []core.RecordLine) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	old, ok := ds.files[deviceID]
	if !ok {
		ds.files[deviceID] = append([]byte(nil), stream...)
		return
	}
	ds.files[deviceID] = mergeStream(old, ds.canonical[deviceID], stream, suffix)
	ds.canonical[deviceID] = true
}

// resetTo replaces the dataset's content wholesale with recovered state (a
// durable server restarting on its store owns the dataset outright).
func (ds *Dataset) resetTo(files map[string][]byte) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.files = make(map[string][]byte, len(files))
	ds.canonical = make(map[string]bool)
	for _, id := range sortedKeys(files) {
		ds.files[id] = append([]byte(nil), files[id]...)
	}
}

// Ping probes the collection server at addr — the heartbeat leg of the
// fleet's failure detector — over a pooled connection, like every other
// client verb. It deliberately bounds the dial and the exchange to
// pingTimeout: a beat exists to fail fast, and a slow answer is as
// suspicious as none. A pooled connection never carries a beat to a dead
// incarnation: a dying server closes its idle connections and marks its
// last OK with a trailing empty line, so the checkout drops them and dials
// whoever listens on addr now.
func Ping(addr string) error {
	reply, err := defaultPool.roundTrip(addr, "PING", nil, pingTimeout, pingTimeout)
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("collect: server rejected ping: %s", reply)
	}
	return nil
}

// pingTimeout bounds a heartbeat's dial and its exchange.
const pingTimeout = 2 * time.Second

// Query asks the collection server at addr a read-only question and returns
// the single-line answer (compact JSON by convention). The whole exchange is
// one header line each way: "QUERY <name> [args...]" out, "OK <answer>" back.
// Queries are served from the live analysis tier, not the durable dataset,
// and never mutate server state.
func Query(addr, name string, args ...string) (string, error) {
	if strings.ContainsAny(name, " \n\t") || name == "" {
		return "", fmt.Errorf("collect: invalid query name %q", name)
	}
	parts := append([]string{"QUERY", name}, args...)
	for _, a := range args {
		if strings.ContainsAny(a, " \n\t") || a == "" {
			return "", fmt.Errorf("collect: invalid query argument %q", a)
		}
	}
	header := strings.Join(parts, " ")
	if len(header)+1 > MaxHeaderBytes {
		return "", errors.New("collect: query too long")
	}
	reply, err := defaultPool.RoundTrip(addr, header, nil)
	if err != nil {
		return "", err
	}
	switch {
	case reply == "OK":
		return "", nil
	case strings.HasPrefix(reply, "OK "):
		return reply[len("OK "):], nil
	default:
		return "", fmt.Errorf("collect: server rejected query: %s", reply)
	}
}

// Fin tells the collection server a device's chunk stream is done (the
// server may drop it). Best-effort bookkeeping: the study data itself has
// already been merged and acknowledged.
func Fin(addr, deviceID string) error {
	if err := checkDeviceID(deviceID); err != nil {
		return err
	}
	reply, err := defaultPool.RoundTrip(addr, "FIN "+deviceID, nil)
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("collect: server rejected fin: %s", reply)
	}
	return nil
}
