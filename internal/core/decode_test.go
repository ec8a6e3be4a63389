package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"symfail/internal/sim"
)

// stdlibDecode is the reference the decoder must agree with.
func stdlibDecode(payload []byte) (Record, bool) {
	var r Record
	if json.Unmarshal(payload, &r) != nil {
		return Record{}, false
	}
	return r, true
}

// checkDecode asserts DecodeRecord agrees with json.Unmarshal on payload,
// and that a payload the canonical path accepts is AppendRecord's encoding
// of the record it decodes to.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	want, wantOK := stdlibDecode(payload)
	got, ok := DecodeRecord(payload)
	if ok != wantOK {
		t.Fatalf("DecodeRecord(%q) ok = %v, json.Unmarshal ok = %v", payload, ok, wantOK)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRecord(%q) = %#v, json.Unmarshal = %#v", payload, got, want)
	}
	if r, canonical := decodeCanonical(payload); canonical {
		if enc := AppendRecord(nil, r); !bytes.Equal(enc, payload) {
			t.Fatalf("canonical path accepted %q, but AppendRecord of its record is %q", payload, enc)
		}
		// A canonical kind needs no escape, so only a time of 19 digits
		// sends RecordTime's caller to the full decode.
		if tm, ok := RecordTime(payload); ok != (-1e18 < r.Time && r.Time < 1e18) || ok && tm != r.Time {
			t.Fatalf("RecordTime(%q) = %d, %v; the record's time is %d", payload, tm, ok, r.Time)
		}
	}
}

// cleanRecord draws a record whose strings need no JSON escape, so its
// encoding is one the canonical path must accept.
func cleanRecord(r *sim.Rand) Record {
	str := func() string {
		const alphabet = "abcXYZ019 -_.:/'()[]{},é€𝄞"
		runes := []rune(alphabet)
		b := make([]rune, r.Intn(10))
		for i := range b {
			b[i] = runes[r.Intn(len(runes))]
		}
		return string(b)
	}
	rec := Record{Kind: []string{KindBoot, KindPanic, str()}[r.Intn(3)], Time: int64(r.Uint64()>>8) - 1<<54}
	if r.Bool(0.5) {
		rec.Boot = r.Intn(1000) - 500
		rec.OSVersion = str()
		rec.PrevBeat = []BeatKind{BeatAlive, BeatReboot, BeatLowBat, BeatMAOff, BeatKind(str())}[r.Intn(5)]
		rec.PrevTime = int64(r.Intn(1 << 40))
		rec.OffSeconds = []float64{r.Float64() * 1e5, 1e-7 * r.Float64(), 1e22 * (r.Float64() + 1), -r.Float64()}[r.Intn(4)]
		rec.Detected = []Detection{DetectedFreeze, DetectedShutdown, DetectedLowBattery, DetectedLoggerOff, DetectedFirstBoot}[r.Intn(5)]
	} else {
		rec.Category = str()
		rec.PType = r.Intn(100) - 50
		if n := r.Intn(4); n > 0 {
			rec.Apps = make([]string, n)
			for i := range rec.Apps {
				rec.Apps[i] = str()
			}
		}
		rec.Activity = str()
	}
	if r.Bool(0.2) {
		rec.LogSalvaged = r.Intn(10)
		rec.LogLost = r.Intn(10)
	}
	return rec
}

func TestDecodeCanonicalRoundTrip(t *testing.T) {
	rng := sim.NewRand(23)
	for i := 0; i < 2000; i++ {
		rec := cleanRecord(rng)
		payload := AppendRecord(nil, rec)
		got, ok := decodeCanonical(payload)
		if !ok {
			t.Fatalf("canonical path rejected AppendRecord's %q", payload)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("decodeCanonical(%q) = %#v, want %#v", payload, got, rec)
		}
		checkDecode(t, payload)
	}
}

func TestDecodeRecordMatchesStdlibOnNastyRecords(t *testing.T) {
	rng := sim.NewRand(7)
	for i := 0; i < 2000; i++ {
		checkDecode(t, AppendRecord(nil, randomRecord(rng)))
	}
}

// TestDecodeRecordFallback lists payloads json.Unmarshal reads but
// AppendRecord never writes: the canonical path must refuse each, and
// DecodeRecord must still return json.Unmarshal's answer.
func TestDecodeRecordFallback(t *testing.T) {
	for _, payload := range []string{
		` {"kind":"boot","time":1}`,
		`{"kind":"boot","time":1} `,
		`{"kind": "boot","time":1}`,
		`{"time":1,"kind":"boot"}`,
		`{"kind":"boot","time":1,"boot":0}`,
		`{"kind":"boot","time":-0}`,
		`{"kind":"boot","time":01}`,
		`{"kind":"boot","time":1.0}`,
		`{"kind":"boot","time":1e3}`,
		`{"kind":"boot","time":1234567890123456789}`,
		`{"kind":"boot","time":1,"os":""}`,
		`{"kind":"a\/b","time":1}`,
		`{"kind":"boot","time":1,"offSeconds":1.50}`,
		`{"kind":"boot","time":1,"offSeconds":1e2}`,
		`{"kind":"boot","time":1,"offSeconds":0}`,
		`{"kind":"boot","time":1,"offSeconds":-0}`,
		`{"kind":"boot","time":1,"offSeconds":0.0000001}`,
		`{"kind":"panic","time":1,"apps":[]}`,
		`{"kind":"panic","time":1,"apps":null}`,
		`{"kind":"panic","time":1,"apps":["a", "b"]}`,
		`{"kind":"panic","time":1,"category":null}`,
		`{"kind":"panic","time":1,"unknown":3}`,
		`{"kind":"panic","time":1,"ptype":3,"ptype":4}`,
		`{"KIND":"panic","time":1}`,
		"{\"kind\":\" \",\"time\":1}",
		"{\"kind\":\"\xff\",\"time\":1}",
		"{\"kind\":\"<b>\",\"time\":1}",
		`{"kind":"boot","time":1`,
		`{"kind":"boot","time":1}}`,
		`{"kind":"boot","time":99999999999999999999}`,
		`{"kind":"boot","time":1,"offSeconds":1e999}`,
		`{"kind":"boot","time":1,"boot":1.5}`,
		`{"kind":"boot","time":1,"detected":7}`,
		`not json`,
		``,
	} {
		if r, ok := decodeCanonical([]byte(payload)); ok {
			t.Errorf("canonical path accepted %q as %#v", payload, r)
		}
		checkDecode(t, []byte(payload))
	}
}

// TestDecodeInternsVocabulary: kinds, beat kinds and detections come back
// as the package's constants, sharing their storage.
func TestDecodeInternsVocabulary(t *testing.T) {
	rec := Record{Kind: KindBoot, Time: 5, Boot: 2, PrevBeat: BeatLowBat, PrevTime: 1, OffSeconds: 4, Detected: DetectedLowBattery}
	got, ok := decodeCanonical(AppendRecord(nil, rec))
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("decodeCanonical = %#v, %v", got, ok)
	}
	for _, pair := range [][2]string{{got.Kind, KindBoot}, {string(got.PrevBeat), string(BeatLowBat)}, {string(got.Detected), string(DetectedLowBattery)}} {
		if unsafe.StringData(pair[0]) != unsafe.StringData(pair[1]) {
			t.Errorf("%q was not interned", pair[0])
		}
	}
}

// FuzzDecodeRecord is the decoder's differential fuzzer: it accepts and
// rejects exactly what json.Unmarshal does and returns a deeply equal
// record, and whatever the canonical path accepts is AppendRecord's
// encoding of the record it returns.
func FuzzDecodeRecord(f *testing.F) {
	// FuzzAppendRecordVsStdlib's seeds, encoded the way that fuzzer builds
	// its records.
	for _, s := range []struct {
		kind, osv, cat, act string
		tm                  int64
		off                 float64
	}{
		{"boot", "7.0s", "KERN-EXEC", "voice", 12345, 42.5},
		{`we"ird`, "a<b>&c", "\u2028\u2029", string([]byte{0xff, 0xfe}), -1, 1e-9},
		{"", "", "", "", 0, 0.0},
	} {
		f.Add(AppendRecord(nil, Record{
			Kind: s.kind, Time: s.tm, OSVersion: s.osv, OffSeconds: s.off,
			Category: s.cat, Activity: s.act, Apps: []string{s.kind, s.act},
		}))
	}
	f.Add(AppendRecord(nil, Record{Kind: KindBoot, Time: 9, Boot: 3, OSVersion: "8.0", PrevBeat: BeatAlive, PrevTime: 4, OffSeconds: 5e-3, Detected: DetectedFreeze}))
	f.Add(AppendRecord(nil, Record{Kind: KindPanic, Time: 2, Category: "USER", PType: 11, Apps: []string{"Phone", ""}, Activity: "idle", LogSalvaged: 1, LogLost: 2}))
	f.Add([]byte(`{"kind":"boot","time":1,"offSeconds":1e21}`))
	f.Add([]byte(`{"kind":"panic","time":1,"apps":["a","b"]}`))
	f.Add(AppendRecord(nil, Record{Kind: KindPanic, Time: -1 << 62}))
	f.Add(AppendRecord(nil, Record{Kind: KindBoot, Time: 999_999_999_999_999_999}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecode(t, payload)
	})
}
