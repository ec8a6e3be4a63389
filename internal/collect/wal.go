package collect

import (
	"encoding/json"
	"fmt"
	"sort"

	"symfail/internal/core"
)

// Write-ahead logging for the collection server. The server's durable state
// lives in two files on a CrashStore:
//
//	wal       — one checksummed frame (core.EncodeFrame) per accepted verb
//	snapshot  — the compacted state: per-device merged log + chunk stream
//
// Every state-changing verb (UPLOAD, CHUNK, FIN, and the fleet's HANDOFF of
// a log or a stream) is appended to the WAL and synced *before* the
// acknowledgement is written to the wire, so an ACK is a durable promise:
// any record the client was told about is recoverable from the synced WAL
// prefix whatever the server does next. A crash tears the un-synced WAL
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

// WAL operations. opChunk and opUpload carry payload bytes; opFin retires a
// device's chunk stream; opHandoff and opHandoffStream carry state
// replicated from a peer server (fleet crash handoff and rebalancing).
const (
	opChunk         = "chunk"
	opUpload        = "upload"
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
// (kind "log") or its live chunk stream (kind "stream"). Presence of the
// frame carries presence of the key, so empty entries survive compaction.
type snapEntry struct {
	Dev  string `json:"dev"`
	Kind string `json:"kind"`
	Data []byte `json:"data,omitempty"`
}

func encodeWALEntry(e walEntry) []byte {
	payload, err := json.Marshal(e)
	if err != nil {
		// walEntry has only marshalable fields; unreachable.
		panic(fmt.Sprintf("collect: marshal wal entry: %v", err))
	}
	return core.EncodeFrame(payload)
}

// encodeSnapshot serialises the server state as framed snapEntries in
// sorted device order (logs first, then streams), so a snapshot of a given
// state is always the same bytes.
func encodeSnapshot(files, streams map[string][]byte) []byte {
	var out []byte
	for _, dev := range sortedKeys(files) {
		out = append(out, encodeSnapEntry(snapEntry{Dev: dev, Kind: "log", Data: files[dev]})...)
	}
	for _, dev := range sortedKeys(streams) {
		out = append(out, encodeSnapEntry(snapEntry{Dev: dev, Kind: "stream", Data: streams[dev]})...)
	}
	return out
}

func encodeSnapEntry(e snapEntry) []byte {
	payload, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("collect: marshal snapshot entry: %v", err))
	}
	return core.EncodeFrame(payload)
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
// where a nil log is an absent one: the first write for a device keeps its
// raw form, later writes go through mergeStream — for a chunk entry
// (canonical set, suffix the stream's records past its settled offset) the
// append step when it applies, otherwise the canonical order-independent
// merge of the whole of add. It returns the new log and whether it is
// canonical. Replay has no Put, so a merged log keeps every record merged
// into it before.
func mergeLogs(old []byte, canonical bool, add []byte, suffix []core.Record) ([]byte, bool) {
	if old == nil {
		return append([]byte(nil), add...), false
	}
	return mergeStream(old, canonical, add, suffix), true
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
		var e snapEntry
		if json.Unmarshal(payload, &e) != nil || e.Dev == "" {
			continue // a frame that verifies but does not parse is skipped, never fatal
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
			var recs []core.Record
			recs, settled[e.Dev] = core.ScanSettled(st, settled[e.Dev])
			files[e.Dev], canonical[e.Dev] = mergeLogs(files[e.Dev], canonical[e.Dev], st, recs)
		case opUpload, opHandoff:
			files[e.Dev], canonical[e.Dev] = mergeLogs(files[e.Dev], false, e.Data, nil)
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
			files[e.Dev], canonical[e.Dev] = mergeLogs(files[e.Dev], false, e.Data, nil)
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
