package core

import (
	"bytes"
	"fmt"
	"testing"

	"symfail/internal/sim"
)

func frameCorpus() [][]byte {
	recs := []Record{
		{Kind: KindBoot, Time: 1, Boot: 1, Detected: DetectedFirstBoot, OSVersion: "8.0"},
		{Kind: KindPanic, Time: 2, Category: "KERN-EXEC", PType: 3, Apps: []string{"Phone.app"}},
		{Kind: KindBoot, Time: 3, Boot: 2, Detected: DetectedFreeze, PrevBeat: BeatAlive, LogSalvaged: 2, LogLost: 1},
	}
	var log []byte
	for _, r := range recs {
		log = append(log, FrameRecord(r)...)
	}
	return [][]byte{
		log,
		EncodeFrame(nil),
		EncodeFrame([]byte("{}")),
		[]byte("~00000000:000000:\n"),
		[]byte("~deadbeef:ffffff:"),
		[]byte("garbage" + string(log) + "more garbage"),
	}
}

func TestEncodeFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte(`{"kind":"boot"}`), bytes.Repeat([]byte("ab"), 5000)} {
		frame := EncodeFrame(payload)
		got, size, ok := decodeFrame(frame)
		if !ok || size != len(frame) || !bytes.Equal(got, payload) {
			t.Errorf("round trip failed for %d-byte payload: ok=%v size=%d", len(payload), ok, size)
		}
	}
}

// TestRecoverLogTruncationAtEveryOffset is the torn-tail exhaustive check:
// however many trailing bytes power loss shaves off a valid log, recovery
// must neither panic nor invent a record, and every frame fully inside the
// prefix must survive.
func TestRecoverLogTruncationAtEveryOffset(t *testing.T) {
	var log []byte
	var boundaries []int // log offsets at which a frame ends
	for i := 0; i < 8; i++ {
		log = append(log, FrameRecord(Record{Kind: KindPanic, Time: int64(i), Category: "USER", PType: i})...)
		boundaries = append(boundaries, len(log))
	}
	for cut := 0; cut <= len(log); cut++ {
		rec := RecoverLog(log[:cut])
		wantFrames := 0
		for _, b := range boundaries {
			if b <= cut {
				wantFrames++
			}
		}
		if rec.Salvaged != wantFrames {
			t.Fatalf("cut at %d: salvaged %d frames, want %d", cut, rec.Salvaged, wantFrames)
		}
		if len(rec.Payloads) != wantFrames {
			t.Fatalf("cut at %d: %d payloads, want %d", cut, len(rec.Payloads), wantFrames)
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if b == cut {
				atBoundary = true
			}
		}
		if rec.Dirty == atBoundary {
			t.Fatalf("cut at %d: Dirty=%v, boundary=%v", cut, rec.Dirty, atBoundary)
		}
	}
}

// TestRecoverLogSingleBitFlips flips every bit of a framed log in turn: the
// damaged frame must be dropped (never a phantom payload) and all other
// frames must survive.
func TestRecoverLogSingleBitFlips(t *testing.T) {
	var log []byte
	var payloads [][]byte
	for i := 0; i < 4; i++ {
		r := Record{Kind: KindPanic, Time: int64(i), Category: "E32USER-CBase", PType: 40 + i}
		log = append(log, FrameRecord(r)...)
		p, _, _ := decodeFrame(FrameRecord(r))
		payloads = append(payloads, p)
	}
	for bit := 0; bit < len(log)*8; bit++ {
		bad := append([]byte(nil), log...)
		bad[bit/8] ^= 1 << (bit % 8)
		rec := RecoverLog(bad)
		if rec.Salvaged > len(payloads) {
			t.Fatalf("bit %d: salvaged %d frames from a %d-frame log", bit, rec.Salvaged, len(payloads))
		}
		// Whatever survived must be one of the original payloads: a flip
		// may destroy a frame but never alter one undetected.
		for _, got := range rec.Payloads {
			known := false
			for _, want := range payloads {
				if bytes.Equal(got, want) {
					known = true
					break
				}
			}
			if !known {
				t.Fatalf("bit %d: recovery surfaced a phantom payload %q", bit, got)
			}
		}
		if rec.Salvaged < len(payloads)-1 {
			t.Fatalf("bit %d: flip destroyed %d frames, at most 1 possible", bit, len(payloads)-rec.Salvaged)
		}
	}
}

// TestRecoverLogIdempotent is the recovery fixpoint property: recovering
// the cleaned bytes changes nothing, reports no damage, and yields the
// same payloads — for torn, bit-flipped and garbage-injected inputs alike.
func TestRecoverLogIdempotent(t *testing.T) {
	rng := sim.NewRand(7)
	for trial := 0; trial < 500; trial++ {
		var log []byte
		for i, n := 0, rng.Intn(6); i < n; i++ {
			log = append(log, FrameRecord(Record{Kind: KindPanic, Time: int64(trial*10 + i), Category: "USER", PType: i})...)
		}
		// Random damage: truncate, flip bits, splice garbage.
		if len(log) > 0 && rng.Bool(0.5) {
			log = log[:rng.Intn(len(log))]
		}
		for i, n := 0, rng.Intn(4); i < n && len(log) > 0; i++ {
			bit := rng.Intn(len(log) * 8)
			log[bit/8] ^= 1 << (bit % 8)
		}
		if rng.Bool(0.3) {
			at := 0
			if len(log) > 0 {
				at = rng.Intn(len(log))
			}
			garbage := []byte(fmt.Sprintf("~~junk%d{", trial))
			log = append(log[:at:at], append(garbage, log[at:]...)...)
		}
		first := RecoverLog(log)
		second := RecoverLog(first.Clean)
		if second.Dirty || second.Lost != 0 {
			t.Fatalf("trial %d: recovery of clean bytes dirty=%v lost=%d", trial, second.Dirty, second.Lost)
		}
		if !bytes.Equal(second.Clean, first.Clean) || len(second.Payloads) != len(first.Payloads) {
			t.Fatalf("trial %d: recovery is not idempotent", trial)
		}
		for i := range first.Payloads {
			if !bytes.Equal(first.Payloads[i], second.Payloads[i]) {
				t.Fatalf("trial %d: payload %d changed across recoveries", trial, i)
			}
		}
	}
}

// refRecoverLog is the copy-based recovery FuzzRecoverLog checks
// RecoverLog against: it appends every intact frame to a new Clean.
func refRecoverLog(data []byte) Recovery {
	var rec Recovery
	i := 0
	inGarbage := false
	for i < len(data) {
		if data[i] == FrameMagic {
			if payload, size, ok := decodeFrame(data[i:]); ok {
				rec.Payloads = append(rec.Payloads, payload)
				rec.Clean = append(rec.Clean, data[i:i+size]...)
				rec.Salvaged++
				i += size
				inGarbage = false
				continue
			}
		}
		if !inGarbage {
			rec.Lost++
			inGarbage = true
		}
		i++
	}
	rec.Dirty = rec.Lost > 0 || len(rec.Clean) != len(data)
	return rec
}

// FuzzRecoverLog hammers the recovery scanner with arbitrary bytes: it
// must never panic, never surface a payload whose frame does not verify,
// always reach the idempotent fixpoint in one pass, and give the
// copy-based reference's Clean, Dirty, payloads and tallies. Where Clean
// is a prefix of data it must alias it, capacity clipped (no copy), and
// data must come out of the scan unchanged.
func FuzzRecoverLog(f *testing.F) {
	for _, seed := range frameCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		rec := RecoverLog(data)
		want := refRecoverLog(orig)
		if !bytes.Equal(rec.Clean, want.Clean) || rec.Dirty != want.Dirty ||
			rec.Salvaged != want.Salvaged || rec.Lost != want.Lost || len(rec.Payloads) != len(want.Payloads) {
			t.Fatalf("recovery %d salvaged, %d lost, dirty=%v, %d clean bytes; reference %d, %d, %v, %d",
				rec.Salvaged, rec.Lost, rec.Dirty, len(rec.Clean), want.Salvaged, want.Lost, want.Dirty, len(want.Clean))
		}
		for i := range rec.Payloads {
			if !bytes.Equal(rec.Payloads[i], want.Payloads[i]) {
				t.Fatalf("payload %d differs from the reference", i)
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("recovery changed the scanned bytes")
		}
		if len(rec.Clean) > 0 && bytes.HasPrefix(data, rec.Clean) {
			if &rec.Clean[0] != &data[0] || cap(rec.Clean) != len(rec.Clean) {
				t.Fatalf("clean prefix of %d bytes copied or not capacity clipped", len(rec.Clean))
			}
		}
		if rec.Salvaged != len(rec.Payloads) {
			t.Fatalf("salvaged %d != %d payloads", rec.Salvaged, len(rec.Payloads))
		}
		if len(rec.Clean) > len(data) {
			t.Fatalf("clean output longer than input: %d > %d", len(rec.Clean), len(data))
		}
		// Every surfaced payload must re-verify: re-encoding it yields a
		// frame whose checksum matches, i.e. no phantom records.
		var reencoded []byte
		for _, p := range rec.Payloads {
			reencoded = append(reencoded, EncodeFrame(p)...)
		}
		if !bytes.Equal(reencoded, rec.Clean) {
			t.Fatalf("clean bytes are not the concatenation of the salvaged frames")
		}
		second := RecoverLog(rec.Clean)
		if second.Dirty || second.Salvaged != rec.Salvaged {
			t.Fatalf("recovery not idempotent: dirty=%v salvaged %d -> %d", second.Dirty, rec.Salvaged, second.Salvaged)
		}
	})
}

// FuzzParseRecordsAndBeat guards the analyser entry points: arbitrary
// on-flash bytes (framed, legacy, or trash) must parse without panicking
// and without inventing records of unknown kinds.
func FuzzParseRecordsAndBeat(f *testing.F) {
	for _, seed := range frameCorpus() {
		f.Add(seed)
	}
	f.Add(EncodeRecord(Record{Kind: KindBoot, Time: 9, Detected: DetectedShutdown}))
	f.Add([]byte(`{"kind":"ALIVE","time":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ParseRecords(data)
		if b, ok := ParseBeat(data); ok {
			switch b.Kind {
			case BeatAlive, BeatReboot, BeatLowBat, BeatMAOff:
			default:
				t.Fatalf("ParseBeat surfaced unknown kind %q", b.Kind)
			}
		}
	})
}

func TestRotateFramedKeepsNewestVerifiableFrames(t *testing.T) {
	var log []byte
	for i := 0; i < 40; i++ {
		log = append(log, FrameRecord(Record{Kind: KindPanic, Time: int64(i), Category: "USER", PType: i})...)
	}
	keep := len(log) / 3
	rotated := rotateFramed(log, keep)
	if len(rotated) > keep {
		t.Fatalf("rotated %d bytes > keep %d", len(rotated), keep)
	}
	rec := RecoverLog(rotated)
	if rec.Dirty {
		t.Fatal("rotation produced a dirty log")
	}
	recs := ParseRecords(rotated)
	if len(recs) == 0 {
		t.Fatal("rotation dropped everything")
	}
	// The survivors are the newest records, in order.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time != recs[i-1].Time+1 {
			t.Fatalf("rotation left a gap: %d then %d", recs[i-1].Time, recs[i].Time)
		}
	}
	if recs[len(recs)-1].Time != 39 {
		t.Fatalf("newest record lost: last time %d", recs[len(recs)-1].Time)
	}
}
