package collect

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"testing"

	"symfail/internal/core"
)

// collidingLines returns record lines of one length and one CRC-32C that
// differ: a panic record whose activity is twelve letters from 'p' to 'w',
// and the records it becomes when a combination of those letters' low
// three bits is flipped that the CRC cannot see. For equal lengths a CRC
// is affine, so the flips it cannot see are the kernel of a 32-by-36 bit
// matrix, which has at least four dimensions; the first two kernel vectors
// found and their sum give three more lines.
func collidingLines() [][]byte {
	const activity = "pqrstuvwpqrs"
	base := core.AppendRecordLine(nil, core.Record{
		Kind: core.KindPanic, Time: 1234567890, Category: "KERN-EXEC", PType: 3, Activity: activity,
	})
	at := bytes.Index(base, []byte(activity))
	zero := crc32.Checksum(make([]byte, len(base)), castagnoli)
	flip := func(mask uint64) []byte {
		d := make([]byte, len(base))
		for i := 0; i < 3*len(activity); i++ {
			if mask>>i&1 != 0 {
				d[at+i/3] ^= 1 << (i % 3)
			}
		}
		return d
	}
	// Gaussian elimination over GF(2): basis[b] has top bit b, and
	// combo[b] says which flips sum to it.
	var basis [32]uint32
	var combo [32]uint64
	var kernel []uint64
	for i := 0; i < 3*len(activity) && len(kernel) < 2; i++ {
		v, m := crc32.Checksum(flip(1<<i), castagnoli)^zero, uint64(1)<<i
		for b := 31; b >= 0 && v != 0; b-- {
			if v>>b&1 == 0 {
				continue
			}
			if basis[b] == 0 {
				basis[b], combo[b] = v, m
				v = 0
				m = 0
				break
			}
			v, m = v^basis[b], m^combo[b]
		}
		if m != 0 {
			kernel = append(kernel, m)
		}
	}
	lines := [][]byte{base}
	for _, m := range []uint64{kernel[0], kernel[1], kernel[0] ^ kernel[1]} {
		line := append([]byte(nil), base...)
		for i, b := range flip(m) {
			line[i] ^= b
		}
		lines = append(lines, line)
	}
	return lines
}

// TestCollidingLinesCollide checks the fuzz seed's premise: the lines
// share length and CRC-32C, differ, and are canonical record lines, so a
// stream of them parses back to the same lines.
func TestCollidingLinesCollide(t *testing.T) {
	lines := collidingLines()
	for i, line := range lines {
		if len(line) != len(lines[0]) || crc32.Checksum(line, castagnoli) != crc32.Checksum(lines[0], castagnoli) {
			t.Fatalf("line %d does not collide with line 0", i)
		}
		for _, other := range lines[:i] {
			if bytes.Equal(line, other) {
				t.Fatalf("line %d repeats an earlier line", i)
			}
		}
		recs := core.ParseRecordLines(line)
		if len(recs) != 1 || !bytes.Equal(recs[0].Line, line) {
			t.Fatalf("line %d %q does not parse back to itself", i, line)
		}
	}
}

// FuzzLedger runs a fuzzed program of record, tapUnacked, keys and devices
// calls over three devices against the map ledger (ledger_ref_test.go):
// after every call the fresh records, in order, the taps and the keys of
// the device called on must match, and so must the device list. Its record
// lines include four that share one CRC-32C and length, and an empty one.
func FuzzLedger(f *testing.F) {
	pool := collidingLines()
	for i := 0; i < 4; i++ {
		pool = append(pool, core.AppendRecordLine(nil, core.Record{Kind: core.KindBoot, Time: int64(i), Boot: i + 1}))
	}
	pool = append(pool, nil) // an empty line, which no parsed record has
	f.Add([]byte{0, 2, 0, 1, 0, 2, 1, 2, 3, 4})
	f.Add([]byte{1, 3, 0, 1, 2, 3, 0, 4, 3, 2, 1, 0, 2, 3})
	f.Add([]byte{4, 2, 1, 0, 0, 3, 0, 1, 2, 3, 6, 7, 4, 8, 5, 1, 9, 2, 0, 3})
	f.Add([]byte{0, 3, 8, 8, 1, 2, 2, 8, 0, 66, 1, 8, 0, 2, 8, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		got, want := NewLedger(), newRefLedger()
		for step := 0; len(prog) > 0; step++ {
			op := next()
			id := string(rune('a' + op/4%3))
			var lines []byte
			var recs []core.RecordLine
			for n := next() % 6; n > 0; n-- {
				line := pool[next()%len(pool)]
				lines = append(lines, line...)
				if len(line) == 0 {
					recs = append(recs, core.RecordLine{})
				}
				recs = append(recs, core.ParseRecordLines(line)...)
			}
			var gotTaps, wantTaps []string
			tapInto := func(taps *[]string) func(string, core.Record) {
				return func(id string, r core.Record) {
					*taps = append(*taps, id+" "+string(core.AppendRecordLine(nil, r)))
				}
			}
			switch op % 4 {
			case 0:
				got.record(id, recs, tapInto(&gotTaps))
				want.record(id, recs, tapInto(&wantTaps))
			case 1:
				if op&0x40 != 0 {
					var framed []byte
					for _, rl := range recs {
						framed = core.AppendFrame(framed, bytes.TrimSuffix(rl.Line, []byte{'\n'}))
					}
					lines = framed
				}
				got.tapUnacked(id, lines, tapInto(&gotTaps))
				want.tapUnacked(id, lines, tapInto(&wantTaps))
			case 2:
				ack := op&0x40 != 0
				if g, w := got.mark(id, recs, ack), want.mark(id, recs, ack); len(g) != len(w) || len(w) > 0 && !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d: mark(%s, ack %v) fresh %d records, reference %d", step, id, ack, len(g), len(w))
				}
			}
			if !reflect.DeepEqual(gotTaps, wantTaps) {
				t.Fatalf("step %d: op %d on %s tapped %q, reference %q", step, op%4, id, gotTaps, wantTaps)
			}
			if g, w := got.keys(id), want.keys(id); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d: keys(%s) = %q, reference %q", step, id, g, w)
			}
			if g, w := got.devices(), want.devices(); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d: devices() = %q, reference %q", step, g, w)
			}
		}
	})
}

// TestLedgerMarkReturnsNewRecordsInPlace: a batch of new records comes
// back as the caller's own slice, and a batch with a booked record in it
// as a copy that leaves the caller's slice as it was.
func TestLedgerMarkReturnsNewRecordsInPlace(t *testing.T) {
	var lines []byte
	for i := 0; i < 4; i++ {
		lines = core.AppendRecordLine(lines, core.Record{Kind: core.KindBoot, Time: int64(i), Boot: i + 1})
	}
	recs := core.ParseRecordLines(lines)
	l := NewLedger()
	if fresh := l.mark("d", recs[:2], true); len(fresh) != 2 || &fresh[0] != &recs[0] {
		t.Fatal("new records were copied")
	}
	before := append([]core.RecordLine(nil), recs...)
	fresh := l.mark("d", []core.RecordLine{recs[2], recs[0], recs[3]}, true)
	if len(fresh) != 2 || !bytes.Equal(fresh[0].Line, recs[2].Line) || !bytes.Equal(fresh[1].Line, recs[3].Line) {
		t.Fatalf("fresh %d records, want records 2 and 3", len(fresh))
	}
	if !reflect.DeepEqual(recs, before) {
		t.Fatal("mark wrote into the caller's records")
	}
}
