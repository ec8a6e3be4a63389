package collect

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"symfail/internal/core"
)

// Write-ahead logging for the collection server. The server's durable state
// lives in two files on a CrashStore:
//
//	wal       — one checksummed frame (core.EncodeFrame) per accepted verb
//	snapshot  — the compacted state: per-device merged log + chunk stream
//
// Every state-changing verb (CHUNK, FIN, and the fleet's HANDOFF of
// a log, a stream or a chunk — a chunk handoff is logged as the CHUNK it
// replicates, so a replica's replay is the owner's) is appended to the WAL
// and synced *before* the acknowledgement is written to the wire, so an ACK
// is a durable promise: any record the client was told about is
// recoverable from the synced WAL prefix whatever the server does next. A crash tears the un-synced WAL
// tail (CrashStore semantics), which is exactly the damage core.RecoverLog
// was built to survive — torn and corrupt frames are dropped, intact ones
// replayed.
//
// Compaction folds the current state into snapshot.tmp, syncs it, renames
// it over snapshot (the atomic commit point), then truncates the WAL. A
// crash anywhere in that sequence leaves either the old snapshot + full WAL
// or the new snapshot + not-yet-truncated WAL; replaying a WAL against a
// snapshot that already contains its effects is a no-op because chunk
// replay is positional and the dataset merge is idempotent.
//
// Recovery is canonical and idempotent, like log recovery on the phone:
// recovering an already-recovered store changes nothing, byte for byte.

// Durable file names on the server's CrashStore.
const (
	walName     = "wal"
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
)

// WAL operations. opChunk carries a chunk and its offset; opFin retires a
// device's chunk stream; opHandoff and opHandoffStream carry state
// replicated from a peer server (fleet crash handoff and rebalancing).
const (
	opChunk         = "chunk"
	opFin           = "fin"
	opHandoff       = "handoff"
	opHandoffStream = "handoffstream"
)

// walEntry is one logged verb. Data round-trips through JSON (base64), the
// same serialisation discipline as the records themselves.
type walEntry struct {
	Op   string `json:"op"`
	Dev  string `json:"dev"`
	Off  int    `json:"off,omitempty"`
	Data []byte `json:"data,omitempty"`
}

// snapEntry is one device's piece of a snapshot: its merged dataset log
// (kind "log") or its live chunk stream (kind "stream"). Its frame payload
// is a "<kind> <dev>\n" header followed by the raw bytes: every shard
// snapshots the streams it replicates as well as the logs, and raw bytes
// are a quarter smaller than base64 in JSON. Presence of the frame carries
// presence of the key, so empty entries survive compaction.
type snapEntry struct {
	Kind, Dev string
	Data      []byte
}

// encodeWALEntry frames e's JSON object, written by hand as json.Marshal
// writes it: fields in order, off and data left out when zero, data in
// standard base64, op and dev escaped as encoding/json escapes strings (a
// device ID may hold '<', '"' or invalid UTF-8). The WAL's size decides
// when the server compacts, so these bytes are pinned to json.Marshal's by
// a differential test. The payload's parts are copied once, into the frame.
func encodeWALEntry(e walEntry) []byte {
	head := append(make([]byte, 0, 64+len(e.Dev)), `{"op":`...)
	head = core.AppendJSONString(head, e.Op)
	head = core.AppendJSONString(append(head, `,"dev":`...), e.Dev)
	if e.Off != 0 {
		head = strconv.AppendInt(append(head, `,"off":`...), int64(e.Off), 10)
	}
	if len(e.Data) == 0 {
		return core.AppendFrameParts(nil, head, []byte("}"))
	}
	head = append(head, `,"data":"`...)
	data := base64.StdEncoding.AppendEncode(nil, e.Data)
	return core.AppendFrameParts(nil, head, data, []byte(`"}`))
}

// encodeSnapshot serialises the server state as framed snapEntries in
// sorted device order (logs first, then streams), so a snapshot of a given
// state is always the same bytes. It sums the snapshot's exact size first
// and writes every frame into one buffer of that size, reading files and
// streams in place: the server calls it under Dataset.mu with the live
// maps. Besides that buffer it allocates the two sorted key slices and one
// header scratch sized for the longest header, however much data the shard
// holds.
func encodeSnapshot(files, streams map[string][]byte) []byte {
	kinds := [...]struct {
		name string
		m    map[string][]byte
	}{{"log", files}, {"stream", streams}}
	size, longest := 0, 0
	for _, kind := range kinds {
		for dev, data := range kind.m {
			h := len(kind.name) + 1 + len(dev) + 1
			size += core.FrameSize(h + len(data))
			longest = max(longest, h)
		}
	}
	out := make([]byte, 0, size)
	header := make([]byte, 0, longest) // "<kind> <dev>\n"
	for _, kind := range kinds {
		for _, dev := range sortedKeys(kind.m) {
			header = append(append(append(append(header[:0], kind.name...), ' '), dev...), '\n')
			out = core.AppendFrameParts(out, header, kind.m[dev])
		}
	}
	return out
}

// decodeSnapEntry parses one snapshot frame's payload. Data aliases the
// payload. ok is false for a payload that verifies but does not parse,
// which recovery skips, never fatally.
func decodeSnapEntry(payload []byte) (e snapEntry, ok bool) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 {
		return e, false
	}
	kind, dev, found := strings.Cut(string(payload[:nl]), " ")
	if !found || dev == "" {
		return e, false
	}
	return snapEntry{Kind: kind, Dev: dev, Data: payload[nl+1:]}, true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mergeLogs mirrors the Dataset's merges on plain bytes for WAL replay,
// on the Dataset's rule: the first write for a device (no log present,
// not even an empty one) keeps its raw form, later writes go through
// mergeStream — for a chunk entry (canonical set, suffix the stream's
// records past its settled offset) the append step when it applies,
// otherwise the canonical order-independent merge of the whole of add.
// It stores the new log in files and returns whether it is canonical.
// Replay has no Put, so a merged log keeps every record merged into it
// before.
func mergeLogs(files map[string][]byte, dev string, canonical bool, add []byte, suffix []core.RecordLine) bool {
	old, ok := files[dev]
	if !ok {
		files[dev] = append([]byte(nil), add...)
		return false
	}
	files[dev] = mergeStream(old, canonical, add, suffix)
	return true
}

// recoverServerState rebuilds the server's in-memory state from the store:
// snapshot first, then the WAL replayed entry by entry. Replay mirrors the
// online handlers exactly — after every chunk entry the device's stream is
// merged into its log, just as handleChunk merges before acknowledging — so
// a stream later rewound by a master reset cannot take already-acknowledged
// records with it. Like handleChunk, replay keeps a settled offset per
// stream and parses each chunk entry's stream only past it, so replaying a
// device's chunks costs O(stream), not O(stream²); the merged bytes are the
// ones a whole-stream merge per entry would give.
//
// Recovery also normalises the medium, making itself idempotent: a WAL or
// snapshot with a torn tail is rewritten to its clean prefix and synced,
// and a stale snapshot.tmp (a compaction that crashed before its Rename
// commit point) is removed. Recovering the recovered store is byte-for-byte
// the same state and leaves the store untouched.
func recoverServerState(store *CrashStore) (files, streams map[string][]byte) {
	files = make(map[string][]byte)
	streams = make(map[string][]byte)

	snapRec := core.RecoverLog(store.Read(snapName))
	for _, payload := range snapRec.Payloads {
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

	// canonical and settled are replay's copies of Dataset.canonical and
	// Server.settled; both start empty, as in a new incarnation.
	canonical := make(map[string]bool)
	settled := make(map[string]int)
	walRec := core.RecoverLog(store.Read(walName))
	for _, payload := range walRec.Payloads {
		var e walEntry
		if json.Unmarshal(payload, &e) != nil || e.Dev == "" {
			continue
		}
		switch e.Op {
		case opChunk:
			st := streams[e.Dev]
			if e.Off > len(st) {
				continue // unreachable: only accepted (gap-free) chunks are logged
			}
			if e.Off < settled[e.Dev] {
				delete(settled, e.Dev)
			}
			st = appendChunk(st, e.Off, e.Data)
			streams[e.Dev] = st
			var recs []core.RecordLine
			recs, settled[e.Dev] = core.ScanSettled(st, settled[e.Dev])
			canonical[e.Dev] = mergeLogs(files, e.Dev, canonical[e.Dev], st, recs)
		case opHandoff:
			canonical[e.Dev] = mergeLogs(files, e.Dev, false, e.Data, nil)
		case opFin:
			delete(streams, e.Dev)
			delete(settled, e.Dev)
		case opHandoffStream:
			// Mirrors handleHandoff: the entry was only logged when the live
			// stream was empty at commit time, and replay reconstructs the
			// same state, so the guard re-evaluates identically.
			if len(streams[e.Dev]) == 0 {
				streams[e.Dev] = append([]byte(nil), e.Data...)
				delete(settled, e.Dev)
			}
			canonical[e.Dev] = mergeLogs(files, e.Dev, false, e.Data, nil)
		}
	}

	if walRec.Dirty {
		store.WriteFile(walName, walRec.Clean)
		store.Sync(walName)
	}
	if snapRec.Dirty {
		store.WriteFile(snapName, snapRec.Clean)
		store.Sync(snapName)
	}
	store.Remove(snapTmpName)
	return files, streams
}

// RecoverState rebuilds (and normalises) a server's durable state from its
// store without starting a server: per-device merged logs and live chunk
// streams. The fleet supervisor reads a dying shard's acked state this way
// to hand it off to surviving peers. Like server construction, recovery is
// idempotent — recovering an already-recovered store returns the same maps
// byte for byte and writes nothing.
func RecoverState(store *CrashStore) (files, streams map[string][]byte) {
	return recoverServerState(store)
}
