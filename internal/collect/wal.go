package collect

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"hash/crc32"
	"slices"
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
// replay is positional and the dataset merge is idempotent. The snapshot
// is written as parts that alias the server's own logs and streams, and
// each entry's frame checksum is extended over what was appended since
// the last compaction (snapFrames.parts), so a compaction costs what
// changed, not what the shard holds; the bytes are the one-buffer
// encoding's.
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

// appendWALEntry appends the frame of e's JSON object to dst, the object
// written by hand as json.Marshal writes it: fields in order, off and data
// left out when zero, data in standard base64, op and dev escaped as
// encoding/json escapes strings (a device ID may hold '<', '"' or invalid
// UTF-8). The WAL's size decides when the server compacts, so these bytes
// are pinned to json.Marshal's by a differential test. The frame header is
// reserved first and filled in once the payload's length and checksum are
// known, so the entry is written once, straight into dst.
func appendWALEntry(dst []byte, e walEntry) []byte {
	dst = slices.Grow(dst, core.FrameSize(64+len(e.Op)+len(e.Dev)+base64.StdEncoding.EncodedLen(len(e.Data))))
	start := len(dst)
	dst = core.AppendFrameHeader(dst, 0, 0)
	body := len(dst)
	dst = core.AppendJSONString(append(dst, `{"op":`...), e.Op)
	dst = core.AppendJSONString(append(dst, `,"dev":`...), e.Dev)
	if e.Off != 0 {
		dst = strconv.AppendInt(append(dst, `,"off":`...), int64(e.Off), 10)
	}
	if len(e.Data) > 0 {
		dst = base64.StdEncoding.AppendEncode(append(dst, `,"data":"`...), e.Data)
		dst = append(dst, '"')
	}
	dst = append(dst, '}')
	core.AppendFrameHeader(dst[:start], len(dst)-body, crc32.Checksum(dst[body:], castagnoli))
	return append(dst, '\n')
}

// snapKinds are the snapshot's entry kinds, in snapshot order: every
// device's log, then every device's stream.
var snapKinds = [2]string{"log", "stream"}

// frameEnd is the closing byte of every frame.
var frameEnd = []byte{'\n'}

// snapFrames is the server's compaction state: per entry kind and device,
// the frame the last compaction wrote, so the next one checksums only
// what changed since.
type snapFrames [2]map[string]*snapFrame

// snapFrame is one snapshot entry's frame as last written.
type snapFrame struct {
	name []byte // "<kind> <dev>\n"
	data []byte // the entry's bytes when written; aliases the server state
	sum  uint32 // CRC-32C of the payload, name + data
	head []byte // frame header + name; never written once handed out
}

// parts serialises the server state as framed snapEntries in sorted device
// order (logs first, then streams), so a snapshot of a given state is
// always the same bytes. It returns them as parts, three per entry: the
// frame header with the "<kind> <dev>\n" line, the entry's own bytes (the
// live log or stream, not a copy) and the frame's closing newline.
//
// An entry whose bytes only grew since the last call, in the same array,
// extends its checksum over the new bytes; an unchanged entry reuses its
// header. A compaction thus costs O(entries + new bytes), not O(all
// bytes). Both rest on one invariant of the server state: no byte below a
// log's or stream's length is ever overwritten (appendChunk and mergeStream
// append past the end or build a new array, every other writer copies), so
// the same first element and a length no shorter mean the same prefix, and
// a stored snapshot's bytes never change under it. FuzzSnapshotParts checks
// both against the one-buffer reference encoder. The server calls it under
// Dataset.mu with the live maps.
func (fr *snapFrames) parts(files, streams map[string][]byte) [][]byte {
	parts := make([][]byte, 0, 3*(len(files)+len(streams)))
	for k, m := range [2]map[string][]byte{files, streams} {
		if fr[k] == nil {
			fr[k] = make(map[string]*snapFrame, len(m))
		}
		frames := fr[k]
		for dev := range frames {
			if _, ok := m[dev]; !ok {
				delete(frames, dev)
			}
		}
		for _, dev := range sortedKeys(m) {
			f := frames[dev]
			if f == nil {
				f = &snapFrame{name: []byte(snapKinds[k] + " " + dev + "\n")}
				f.sum = crc32.Checksum(f.name, castagnoli)
				frames[dev] = f
			}
			f.update(m[dev])
			parts = append(parts, f.head, f.data, frameEnd)
		}
	}
	return parts
}

// update moves the frame to data, checksumming only the bytes past the
// prefix it already covers.
func (f *snapFrame) update(data []byte) {
	if len(data) < len(f.data) || len(f.data) > 0 && &data[0] != &f.data[0] {
		f.sum, f.data, f.head = crc32.Checksum(f.name, castagnoli), nil, nil // another array
	}
	if f.head != nil && len(data) == len(f.data) {
		return
	}
	f.sum = crc32.Update(f.sum, castagnoli, data[len(f.data):])
	f.data = data
	n := len(f.name) + len(data)
	f.head = append(core.AppendFrameHeader(make([]byte, 0, core.FrameSize(len(f.name))), n, f.sum), f.name...)
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
	var recs []core.RecordLine // every chunk entry's scan, reused
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
			recs, settled[e.Dev] = core.ScanSettled(recs[:0], st, settled[e.Dev])
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
