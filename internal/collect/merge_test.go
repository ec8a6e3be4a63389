package collect

import (
	"bytes"
	"testing"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// genRecords produces a deterministic, deliberately nasty record stream:
// duplicated serialized forms, distinct records sharing a timestamp, and
// out-of-order times — everything the canonical merge must normalise.
func genRecords(seed uint64, n int) []core.Record {
	rng := sim.NewRand(seed)
	recs := make([]core.Record, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(recs) > 0 && rng.Bool(0.2):
			// Exact duplicate of an earlier record (a re-sent chunk).
			recs = append(recs, recs[rng.Intn(len(recs))])
		case rng.Bool(0.3):
			recs = append(recs, core.Record{
				Kind:     core.KindPanic,
				Time:     int64(rng.Intn(50) * 1_000_000_000), // frequent time collisions
				Category: "KERN-EXEC",
				PType:    rng.Intn(4),
				Activity: "idle",
			})
		default:
			recs = append(recs, core.Record{
				Kind:      core.KindBoot,
				Time:      int64(rng.Intn(50) * 1_000_000_000),
				Boot:      rng.Intn(9) + 1,
				OSVersion: "8.0",
				Detected:  core.DetectedShutdown,
			})
		}
	}
	return recs
}

// partition deals the stream into k batches with a deterministic but
// uneven interleaving.
func partition(rng *sim.Rand, recs []core.Record, k int) [][]core.Record {
	batches := make([][]core.Record, k)
	for _, r := range recs {
		i := rng.Intn(k)
		batches[i] = append(batches[i], r)
	}
	return batches
}

// TestMergeRecordsOrderIndependent is the canonical-merge property the
// sharded fleet rests on: however the per-device record stream is split
// into batches, and whatever order those batches arrive in, the merged
// sequence is byte-identical.
func TestMergeRecordsOrderIndependent(t *testing.T) {
	recs := genRecords(1, 200)
	want := EncodeRecords(MergeRecords(recs))
	rng := sim.NewRand(2)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		batches := partition(rng, recs, k)
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		if rng.Bool(0.5) && k > 1 {
			// Re-send a batch wholesale: merging must be idempotent.
			batches = append(batches, batches[rng.Intn(k)])
		}
		got := EncodeRecords(MergeRecords(batches...))
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d batches): merged bytes differ from the canonical order\n got: %q\nwant: %q",
				trial, len(batches), got, want)
		}
	}
}

func TestMergeRecordsIdempotent(t *testing.T) {
	merged := MergeRecords(genRecords(3, 120))
	again := MergeRecords(merged, merged[:40], merged[80:])
	if !bytes.Equal(EncodeRecords(again), EncodeRecords(merged)) {
		t.Error("re-merging a merged sequence with its own subsets changed the bytes")
	}
}

func TestMergeRecordsEmpty(t *testing.T) {
	if got := MergeRecords(); len(got) != 0 {
		t.Errorf("merging nothing yielded %d records", len(got))
	}
	if got := MergeRecords(nil, []core.Record{}); len(got) != 0 {
		t.Errorf("merging empty batches yielded %d records", len(got))
	}
}

// TestPutMergedOrderIndependent lifts the property to the Dataset: batches
// applied through PutMerged in any order converge to the same stored bytes
// (given at least two uploads, the first raw store is re-canonicalised by
// the first merge).
func TestPutMergedOrderIndependent(t *testing.T) {
	recs := MergeRecords(genRecords(4, 150)) // start from a clean stream
	rng := sim.NewRand(5)
	var want []byte
	for trial := 0; trial < 30; trial++ {
		batches := partition(rng, recs, 2+rng.Intn(4))
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		ds := NewDataset()
		for _, b := range batches {
			ds.PutMerged("phone-01", EncodeRecords(b))
		}
		got, _ := ds.Get("phone-01")
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: dataset bytes depend on upload order", trial)
		}
	}
}

// FuzzMergeRecords fuzzes the partition/interleaving space: any way of
// dealing any generated stream into any number of batches, in any order,
// must merge to the reference canonical sequence.
func FuzzMergeRecords(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3))
	f.Add(uint64(42), uint64(7), uint8(1))
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, genSeed, dealSeed uint64, k uint8) {
		n := 1 + int(genSeed%97)
		recs := genRecords(genSeed, n)
		want := EncodeRecords(MergeRecords(recs))

		rng := sim.NewRand(dealSeed)
		batches := partition(rng, recs, 1+int(k%8))
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		if got := EncodeRecords(MergeRecords(batches...)); !bytes.Equal(got, want) {
			t.Fatalf("merge depends on interleaving\n got: %q\nwant: %q", got, want)
		}
		// Idempotence under self-merge.
		merged := MergeRecords(batches...)
		if got := EncodeRecords(MergeRecords(merged, merged)); !bytes.Equal(got, want) {
			t.Fatalf("self-merge changed the bytes")
		}
	})
}

// sortsAfterLogDecoding is sortsAfterLog with the last line fully decoded,
// the reference the prefix read must agree with.
func sortsAfterLogDecoding(rl core.RecordLine, log []byte) bool {
	if len(log) == 0 {
		return true
	}
	line := log[bytes.LastIndexByte(log[:len(log)-1], '\n')+1:]
	last, ok := core.DecodeRecord(bytes.TrimSuffix(line, []byte{'\n'}))
	if !ok {
		return false
	}
	if rl.Record.Time != last.Time {
		return rl.Record.Time > last.Time
	}
	return bytes.Compare(rl.Line, line) > 0
}

// TestSortsAfterLogMatchesDecode: over the merge tests' canonical logs,
// cut after every record, and every record of the stream as the candidate
// (earlier, equal and later keys alike), reading the last line's time from
// its prefix gives the full decode's answer. Escaped kinds and 19-digit
// times take the decode fallback.
func TestSortsAfterLogMatchesDecode(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		recs := genRecords(seed, 1+int(seed%30))
		if seed%4 == 0 {
			recs = append(recs, core.Record{Kind: `pa"nic`, Time: 7e9}, core.Record{Kind: core.KindPanic, Time: 1 << 62})
		}
		merged := withLines(MergeRecords(recs))
		for cut := 0; cut <= len(merged); cut++ {
			log := appendLines(nil, merged[:cut])
			for _, rl := range merged {
				if got, want := sortsAfterLog(rl, log), sortsAfterLogDecoding(rl, log); got != want {
					t.Fatalf("seed %d, log of %d records, candidate %q: sortsAfterLog = %v, the full decode says %v", seed, cut, rl.Line, got, want)
				}
			}
		}
	}
}
