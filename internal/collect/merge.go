package collect

import (
	"bytes"
	"cmp"
	"hash/crc32"
	"slices"

	"symfail/internal/core"
)

// MergeRecords is the canonical per-device record merge: it combines any
// number of record batches into one deduplicated, totally ordered sequence.
// The operation is idempotent, commutative and associative — any
// interleaving of the same batches, in any order, across any number of
// calls, merges to the identical sequence — which is what makes the
// collected dataset independent of upload scheduling: re-sends after lost
// acknowledgements, rewound streams and concurrent per-shard uploads all
// collapse to the same bytes.
//
// Records deduplicate by their line (core.AppendRecordLine's bytes) and
// order by (timestamp, line). The line tie-break gives equal-time records a
// total order no arrival schedule can perturb; device identity, the
// outermost key of the merge order, lives in the Dataset keying above this
// level.
func MergeRecords(batches ...[]core.Record) []core.Record {
	lined := make([][]core.RecordLine, len(batches))
	for i, batch := range batches {
		lined[i] = withLines(batch)
	}
	merged := mergeLines(lined...)
	out := make([]core.Record, len(merged))
	for i, rl := range merged {
		out[i] = rl.Record
	}
	return out
}

// mergeLines is MergeRecords on records that carry their lines, as
// core.ScanSettled and core.ParseRecordLines return them: it re-encodes
// nothing. Equal lines sort next to each other, so deduplication is one
// pass over the sorted batches. Which of a run of equal lines is kept
// does not change the merged bytes. One batch already in strict order,
// as a CHUNK's new records usually are, is its own merge: it is returned
// as it is, not copied, and must then only be read.
func mergeLines(batches ...[]core.RecordLine) []core.RecordLine {
	if len(batches) == 1 && inStrictOrder(batches[0]) {
		return batches[0]
	}
	all := slices.Concat(batches...)
	slices.SortFunc(all, compareLines)
	return slices.CompactFunc(all, func(a, b core.RecordLine) bool {
		return bytes.Equal(a.Line, b.Line)
	})
}

// compareLines is the merge order: (Time, line).
func compareLines(a, b core.RecordLine) int {
	if c := cmp.Compare(a.Record.Time, b.Record.Time); c != 0 {
		return c
	}
	return bytes.Compare(a.Line, b.Line)
}

// inStrictOrder reports whether recs ascend strictly in the merge order.
func inStrictOrder(recs []core.RecordLine) bool {
	for i := 1; i < len(recs); i++ {
		if compareLines(recs[i-1], recs[i]) >= 0 {
			return false
		}
	}
	return true
}

// withLines pairs each record with its core.AppendRecordLine bytes, for
// callers that hold records without the bytes they were parsed from.
func withLines(recs []core.Record) []core.RecordLine {
	out := make([]core.RecordLine, len(recs))
	for i, r := range recs {
		out[i] = core.RecordLine{Record: r, Line: core.AppendRecordLine(nil, r)}
	}
	return out
}

// mergeStream is the merge step of a CHUNK, shared by the server's dataset
// and WAL replay. log is a device's existing log. canonical reports that log
// is MergeRecords output that already holds every record of stream up to
// the settled offset suffix was scanned from (core.ScanSettled); suffix
// holds the records of stream past it. When canonical, and the sorted,
// deduplicated suffix sorts strictly after the log's last (Time, line) key,
// the suffix's lines are appended to log in place, past len(log), which
// leaves every byte a compaction snapshot aliases as it was. Otherwise the
// whole stream is merged into a new array. Either way the result is canonical and its bytes equal
// EncodeRecords(MergeRecords(ParseRecords(log), ParseRecords(stream))): the
// records before the settled offset are already in the log, and the
// appended ones sort after all of it.
func mergeStream(log []byte, canonical bool, stream []byte, suffix []core.RecordLine) []byte {
	if canonical {
		if batch := mergeLines(suffix); len(batch) == 0 || sortsAfterLog(batch[0], log) {
			return appendLines(log, batch)
		}
	}
	return appendLines(nil, mergeLines(core.ParseRecordLines(log), core.ParseRecordLines(stream)))
}

// sortsAfterLog reports whether rl sorts strictly after the last record of
// a canonical log in the MergeRecords order, (Time, line). A canonical
// log's lines are AppendRecordLine's, so the last one's time is read from
// its prefix (core.RecordTime), and the line is decoded only when that
// prefix does not parse.
func sortsAfterLog(rl core.RecordLine, log []byte) bool {
	if len(log) == 0 {
		return true
	}
	line := log[bytes.LastIndexByte(log[:len(log)-1], '\n')+1:]
	payload := bytes.TrimSuffix(line, []byte{'\n'})
	last, ok := core.RecordTime(payload)
	if !ok {
		r, decoded := core.DecodeRecord(payload)
		if !decoded {
			return false
		}
		last = r.Time
	}
	if rl.Record.Time != last {
		return rl.Record.Time > last
	}
	return bytes.Compare(rl.Line, line) > 0
}

// appendLines appends the lines of recs to dst.
func appendLines(dst []byte, recs []core.RecordLine) []byte {
	for _, rl := range recs {
		dst = append(dst, rl.Line...)
	}
	return dst
}

// EncodeRecords serialises a record sequence as the dataset stores it: one
// JSON line per record.
func EncodeRecords(recs []core.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = core.AppendRecordLine(out, r)
	}
	return out
}

// CRC32C is the dataset's canonical fingerprint: a CRC-32C over every
// device ID and its log bytes, in sorted device order. Two datasets with
// the same fingerprint hold byte-identical logs for the same devices — the
// serial-vs-parallel equivalence tests compare whole runs through this one
// number.
func (ds *Dataset) CRC32C() uint32 {
	var sum uint32
	for _, id := range ds.Devices() {
		data, _ := ds.Get(id)
		sum = crc32.Update(sum, castagnoli, []byte(id))
		sum = crc32.Update(sum, castagnoli, data)
	}
	return sum
}
