package core

import (
	"bytes"
	"reflect"
	"testing"
)

func settledTestFrames() (f1, f2, f3, f4 []byte, r1, r2, r3, r4 Record) {
	r1 = Record{Kind: KindBoot, Time: 1, Boot: 1, Detected: DetectedFirstBoot}
	r2 = Record{Kind: KindPanic, Time: 2, Category: "KERN-EXEC", PType: 3, Apps: []string{"Phone.app"}}
	r3 = Record{Kind: KindPanic, Time: 2, Category: "USER", PType: 11}
	r4 = Record{Kind: KindBoot, Time: 5, Boot: 2, Detected: DetectedFreeze, OffSeconds: 1.5}
	return FrameRecord(r1), FrameRecord(r2), FrameRecord(r3), FrameRecord(r4), r1, r2, r3, r4
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// corrupt returns a copy of frame with one payload byte flipped: the frame
// no longer verifies.
func corrupt(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[frameHeaderLen+1] ^= 0x20
	return out
}

func TestScanSettled(t *testing.T) {
	f1, f2, f3, f4, r1, r2, r3, r4 := settledTestFrames()
	legacy := cat(EncodeRecord(r1), EncodeRecord(r2))
	cases := []struct {
		name        string
		data        []byte
		off         int
		wantRecs    []Record
		wantSettled int
	}{
		{"empty", nil, 0, nil, 0},
		{"whole log", cat(f1, f2, f3), 0, []Record{r1, r2, r3}, len(f1) + len(f2) + len(f3)},
		{"from a settled offset", cat(f1, f2, f3), len(f1), []Record{r2, r3}, len(f1) + len(f2) + len(f3)},
		{"at the end", cat(f1, f2), len(f1) + len(f2), nil, len(f1) + len(f2)},
		{"torn tail", cat(f1, f2, f3[:len(f3)-4]), 0, []Record{r1, r2}, len(f1) + len(f2)},
		{"torn header", cat(f1, f2[:5]), len(f1), nil, len(f1)},
		{"torn tail completed", cat(f1, f2, f3), len(f1) + len(f2), []Record{r3}, len(f1) + len(f2) + len(f3)},
		{"corrupt region", cat(f1, corrupt(f2), f3, f4), 0, []Record{r1, r3, r4}, len(f1)},
		{"corrupt region rescanned", cat(f1, corrupt(f2), f3, f4), len(f1), []Record{r3, r4}, len(f1)},
		{"garbage between frames", cat(f1, []byte("xx"), f2), 0, []Record{r1, r2}, len(f1)},
		{"non-record payload", cat(f1, EncodeFrame([]byte("not json")), f2), 0, []Record{r1, r2}, len(f1) + len(EncodeFrame([]byte("not json"))) + len(f2)},
		{"legacy lines never settle", legacy, 0, []Record{r1, r2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines, settled := ScanSettled(nil, tc.data, tc.off)
			if settled != tc.wantSettled {
				t.Errorf("settled = %d, want %d", settled, tc.wantSettled)
			}
			if recs := recordsOf(lines); !reflect.DeepEqual(recs, tc.wantRecs) {
				t.Errorf("records = %+v, want %+v", recs, tc.wantRecs)
			}
			checkScanSettled(t, tc.data, tc.off)
		})
	}
}

// TestScanSettledGrowingLog appends a framed log one byte at a time,
// carrying the settled offset from each scan into the next: the offset
// reaches every frame end as soon as that frame completes, never passes a
// corrupt frame however much follows it, and every scan satisfies the
// prefix law.
func TestScanSettledGrowingLog(t *testing.T) {
	f1, f2, f3, f4, _, _, _, _ := settledTestFrames()
	bad := corrupt(f3)
	log := cat(f1, f2, bad, f4)
	off := 0
	for n := 0; n <= len(log); n++ {
		data := log[:n]
		checkScanSettled(t, data, off)
		_, settled := ScanSettled(nil, data, off)
		want := 0
		for _, end := range []int{len(f1), len(f1) + len(f2)} {
			if n >= end {
				want = end
			}
		}
		if settled != want {
			t.Fatalf("at %d bytes: settled = %d, want %d", n, settled, want)
		}
		off = settled
	}
}

// recordsOf drops the lines of a ScanSettled result.
func recordsOf(lines []RecordLine) []Record {
	var out []Record
	for _, rl := range lines {
		out = append(out, rl.Record)
	}
	return out
}

// checkScanSettled asserts the prefix law, that every returned line is its
// record's AppendRecordLine, and that everything before the settled offset
// is intact frames.
func checkScanSettled(t *testing.T, data []byte, off int) {
	t.Helper()
	lines, settled := ScanSettled(nil, data, off)
	for _, rl := range lines {
		if want := AppendRecordLine(nil, rl.Record); !bytes.Equal(rl.Line, want) {
			t.Fatalf("ScanSettled(data, %d) returned line %q for %+v, want AppendRecordLine's %q", off, rl.Line, rl.Record, want)
		}
	}
	sentinel := RecordLine{Line: []byte("sentinel\n")}
	if after, again := ScanSettled([]RecordLine{sentinel}, data, off); again != settled || len(after) != 1+len(lines) ||
		string(after[0].Line) != string(sentinel.Line) || !reflect.DeepEqual(after[1:], lines) {
		t.Fatalf("ScanSettled(dst, data, %d) did not append what ScanSettled(nil, data, %d) returns to dst", off, off)
	}
	want := ParseRecords(data)
	got := append(ParseRecords(data[:off]), recordsOf(lines)...)
	if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("ParseRecords(data[:%d]) ++ ScanSettled(data, %d) = %+v, want ParseRecords(data) = %+v", off, off, got, want)
	}
	if settled < off || settled > len(data) {
		t.Fatalf("settled %d outside [%d, %d]", settled, off, len(data))
	}
	if settled > 0 && RecoverLog(data[:settled]).Dirty {
		t.Fatalf("settled %d covers a damaged frame", settled)
	}
}

// FuzzScanSettled checks the prefix law for any bytes at any offset an
// earlier scan of a prefix returned, and that growth moves the settled
// offset past a frame that failed to decode only when the growth completed
// that frame: a corrupt frame is never settled past.
func FuzzScanSettled(f *testing.F) {
	f1, f2, f3, f4, r1, _, _, _ := settledTestFrames()
	f.Add(cat(f1, f2, f3, f4), uint16(len(f1)+3))
	f.Add(cat(f1, f2[:7]), uint16(len(f1)+2))
	f.Add(cat(f1, corrupt(f2), f3), uint16(len(f1)+len(f2)+5))
	f.Add(cat(EncodeRecord(r1), f1), uint16(4))
	f.Add([]byte{}, uint16(0))
	for _, c := range frameCorpus() {
		f.Add(c, uint16(len(c)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		prefix := data[:int(cut)%(len(data)+1)]
		_, off := ScanSettled(nil, prefix, 0)
		checkScanSettled(t, data, off)
		_, settled := ScanSettled(nil, data, off)
		if settled == 0 || settled == len(data) {
			return
		}
		grown := append(append([]byte(nil), data...), f1...)
		if _, again := ScanSettled(nil, grown, settled); again != settled {
			if _, size, ok := decodeFrame(grown[settled:]); !ok || settled+size <= len(data) {
				t.Fatalf("appending a frame moved settled %d -> %d past a complete damaged frame", settled, again)
			}
		}
	})
}

// TestScanSettledLinesAliasStream: a canonically encoded frame's line is
// the frame's own payload and newline, not a re-encoding; a frame whose
// payload json.Unmarshal reads but AppendRecord would not write gets a
// fresh line.
func TestScanSettledLinesAliasStream(t *testing.T) {
	f1, f2, _, _, _, _, _, _ := settledTestFrames()
	odd := EncodeFrame([]byte(`{"time":3, "kind":"boot"}`))
	data := cat(f1, odd, f2)
	lines, _ := ScanSettled(nil, data, 0)
	if len(lines) != 3 {
		t.Fatalf("got %d records, want 3", len(lines))
	}
	aliases := func(line []byte, at int) bool {
		return len(line) > 0 && &line[0] == &data[at+frameHeaderLen]
	}
	if !aliases(lines[0].Line, 0) || !aliases(lines[2].Line, len(f1)+len(odd)) {
		t.Error("canonical frames' lines do not alias their payloads")
	}
	if aliases(lines[1].Line, len(f1)) || string(lines[1].Line) != "{\"kind\":\"boot\",\"time\":3}\n" {
		t.Errorf("non-canonical frame's line = %q, want a fresh AppendRecordLine", lines[1].Line)
	}
}

// TestScanSettledSizesANilSlice: a scan given no slice sizes one from the
// bytes it reads and never regrows it, so a scan of the logger's shortest
// records, which decode without allocating, allocates once.
func TestScanSettledSizesANilSlice(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	var data []byte
	for i := 0; i < 40; i++ {
		data = AppendFrame(data, AppendRecord(nil, Record{Kind: KindBoot, Time: int64(i), Boot: 1}))
	}
	if lines, _ := ScanSettled(nil, data, 0); len(lines) != 40 {
		t.Fatalf("got %d records, want 40", len(lines))
	}
	if avg := testing.AllocsPerRun(100, func() { ScanSettled(nil, data, 0) }); avg != 1 {
		t.Errorf("ScanSettled(nil, 40 boot frames) made %.1f allocations, want 1", avg)
	}
}
