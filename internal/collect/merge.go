package collect

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"sort"

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
// Records deduplicate by their exact serialized form and order by
// (timestamp, serialized bytes). The byte tie-break gives equal-time
// records a total order no arrival schedule can perturb; device identity,
// the outermost key of the merge order, lives in the Dataset keying above
// this level.
func MergeRecords(batches ...[]core.Record) []core.Record {
	seen := make(map[string]bool)
	type keyed struct {
		rec core.Record
		key string
	}
	var all []keyed
	var scratch []byte
	for _, batch := range batches {
		for _, r := range batch {
			scratch = core.AppendRecordLine(scratch[:0], r)
			if seen[string(scratch)] { // alloc-free lookup; the key string is built only for new records
				continue
			}
			key := string(scratch)
			seen[key] = true
			all = append(all, keyed{rec: r, key: key})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rec.Time != all[j].rec.Time {
			return all[i].rec.Time < all[j].rec.Time
		}
		return all[i].key < all[j].key
	})
	out := make([]core.Record, len(all))
	for i, k := range all {
		out[i] = k.rec
	}
	return out
}

// mergeStream is the merge step of a CHUNK, shared by the server's dataset
// and WAL replay. log is a device's existing log. canonical reports that log
// is MergeRecords output that already holds every record of stream up to
// the settled offset suffix was scanned from (core.ScanSettled); suffix
// holds the records of stream past it. When canonical, and the sorted,
// deduplicated suffix sorts strictly after the log's last (Time, line) key,
// the encoded suffix is appended to log in place. Otherwise the whole
// stream is merged. Either way the result is canonical and its bytes equal
// EncodeRecords(MergeRecords(ParseRecords(log), ParseRecords(stream))): the
// records before the settled offset are already in the log, and the
// appended ones sort after all of it.
func mergeStream(log []byte, canonical bool, stream []byte, suffix []core.Record) []byte {
	if canonical {
		if batch := MergeRecords(suffix); len(batch) == 0 || sortsAfterLog(batch[0], log) {
			for _, r := range batch {
				log = core.AppendRecordLine(log, r)
			}
			return log
		}
	}
	return EncodeRecords(MergeRecords(core.ParseRecords(log), core.ParseRecords(stream)))
}

// sortsAfterLog reports whether r sorts strictly after the last record of a
// canonical log in the MergeRecords order, (Time, serialized line).
func sortsAfterLog(r core.Record, log []byte) bool {
	if len(log) == 0 {
		return true
	}
	line := log[bytes.LastIndexByte(log[:len(log)-1], '\n')+1:]
	var last core.Record
	if json.Unmarshal(line, &last) != nil {
		return false
	}
	if r.Time != last.Time {
		return r.Time > last.Time
	}
	return bytes.Compare(core.AppendRecordLine(nil, r), line) > 0
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
