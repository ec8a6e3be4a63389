package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The reflection-free record decoder, AppendRecord's inverse. Every record
// the logger writes, and every line the collection tier stores, is
// AppendRecord's output: fixed field order, omitempty fields left out,
// strings that need no escape, canonical integers and floats. The decoder
// accepts exactly those bytes and hands anything else to encoding/json, so
// what is accepted and what is decoded are json.Unmarshal's answers for
// every input (pinned by the FuzzDecodeRecord differential fuzzer).
//
// Accepting only canonical bytes buys a second property: an accepted
// payload is AppendRecord of the record it decodes to. A frame's payload
// followed by the frame's closing '\n' is then the record's
// AppendRecordLine, so the collection tier keys, sorts and stores records
// by subslices of the stream it already holds and re-encodes nothing.

// RecordLine is a record with its AppendRecordLine bytes, the form the
// collection tier deduplicates, orders and stores records by. Line may
// alias the log the record was parsed from; the caller must not modify it.
type RecordLine struct {
	Record Record
	Line   []byte
}

// DecodeRecord decodes one record payload, a JSON object as a frame holds
// it: with the canonical decoder when payload is AppendRecord's output,
// with json.Unmarshal otherwise. ok is false when json.Unmarshal fails.
func DecodeRecord(payload []byte) (r Record, ok bool) {
	r, _, ok = decodeRecord(payload)
	return r, ok
}

// decodeRecord is DecodeRecord that also reports whether payload was
// canonical, that is equal to AppendRecord(nil, r).
func decodeRecord(payload []byte) (r Record, canonical, ok bool) {
	if r, ok := decodeCanonical(payload); ok {
		return r, true, true
	}
	var slow Record
	if json.Unmarshal(payload, &slow) != nil {
		return Record{}, false, false
	}
	return slow, false, true
}

// appendRecordLine appends the record of line, a record payload followed by
// '\n' (the last line of a legacy log may lack it), with its AppendRecordLine
// bytes: line itself when the payload is canonical and the newline present,
// a fresh encoding otherwise. A line that is not a record is skipped (the
// ParseRecords rule).
func appendRecordLine(recs []RecordLine, line []byte) []RecordLine {
	payload, terminated := bytes.CutSuffix(line, newline)
	r, canonical, ok := decodeRecord(payload)
	if !ok {
		return recs
	}
	if !canonical || !terminated {
		line = AppendRecordLine(nil, r)
	}
	return append(recs, RecordLine{Record: r, Line: line})
}

var newline = []byte{'\n'}

// RecordTime reads the Time of a record payload from its prefix alone,
// `{"kind":"<kind>","time":<int>` followed by ',' or '}', as AppendRecord
// writes it, without decoding the rest. ok is false when the prefix does
// not have that shape (an escaped kind, a time of more than 18 digits, or
// not AppendRecord's bytes at all), and the caller decodes the payload
// instead. For a payload AppendRecord wrote, Time is the decoded record's
// (checked over the decoder's fuzz corpus).
func RecordTime(payload []byte) (t int64, ok bool) {
	rest, ok := bytes.CutPrefix(payload, []byte(`{"kind":"`))
	if !ok {
		return 0, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 || bytes.IndexByte(rest[:end], '\\') >= 0 {
		return 0, false
	}
	if rest, ok = bytes.CutPrefix(rest[end+1:], []byte(`,"time":`)); !ok {
		return 0, false
	}
	neg := len(rest) > 0 && rest[0] == '-'
	if neg {
		rest = rest[1:]
	}
	n := 0
	for n < len(rest) && '0' <= rest[n] && rest[n] <= '9' {
		t = t*10 + int64(rest[n]-'0')
		n++
	}
	if n == 0 || n > 18 || n > 1 && rest[0] == '0' || n == len(rest) || rest[n] != ',' && rest[n] != '}' {
		return 0, false
	}
	if neg {
		t = -t
	}
	return t, true
}

// The closed vocabularies come back as the package's constants, so
// decoding a record allocates only for its free-text fields.
var (
	kindVocab      = []string{KindBoot, KindPanic}
	beatVocab      = []string{string(BeatAlive), string(BeatReboot), string(BeatLowBat), string(BeatMAOff)}
	detectionVocab = []string{
		string(DetectedFreeze), string(DetectedShutdown), string(DetectedLowBattery),
		string(DetectedLoggerOff), string(DetectedFirstBoot),
	}
)

// decodeCanonical decodes p when it is exactly AppendRecord's encoding of
// some record, and reports false otherwise.
func decodeCanonical(p []byte) (r Record, ok bool) {
	d := canonDecoder{p: p}
	d.expect(`{"kind":`)
	r.Kind = d.str(kindVocab, true)
	d.expect(`,"time":`)
	r.Time = d.int(true)
	if d.field(`,"boot":`) {
		r.Boot = int(d.int(false))
	}
	if d.field(`,"os":`) {
		r.OSVersion = d.str(nil, false)
	}
	if d.field(`,"prevBeat":`) {
		r.PrevBeat = BeatKind(d.str(beatVocab, false))
	}
	if d.field(`,"prevTime":`) {
		r.PrevTime = d.int(false)
	}
	if d.field(`,"offSeconds":`) {
		r.OffSeconds = d.float()
	}
	if d.field(`,"detected":`) {
		r.Detected = Detection(d.str(detectionVocab, false))
	}
	if d.field(`,"category":`) {
		r.Category = d.str(nil, false)
	}
	if d.field(`,"ptype":`) {
		r.PType = int(d.int(false))
	}
	if d.field(`,"apps":[`) {
		r.Apps = d.strs()
	}
	if d.field(`,"activity":`) {
		r.Activity = d.str(nil, false)
	}
	if d.field(`,"salvaged":`) {
		r.LogSalvaged = int(d.int(false))
	}
	if d.field(`,"lost":`) {
		r.LogLost = int(d.int(false))
	}
	d.expect("}")
	if d.bad || len(d.p) > 0 {
		return Record{}, false
	}
	return r, true
}

// canonDecoder consumes p from the front. Once bad is set every method is a
// no-op, so decodeCanonical reads as the field list it checks.
type canonDecoder struct {
	p   []byte
	bad bool
}

// expect consumes the literal s, or marks the payload bad.
func (d *canonDecoder) expect(s string) {
	if !d.field(s) {
		d.bad = true
	}
}

// field consumes the literal s (a field's `,"name":` prefix) when p starts
// with it. Fields appear in AppendRecord's order, so a field that is absent
// here and present later leaves bytes the final "}" does not match.
func (d *canonDecoder) field(s string) bool {
	if d.bad || len(d.p) < len(s) || string(d.p[:len(s)]) != s {
		return false
	}
	d.p = d.p[len(s):]
	return true
}

// maxCanonDigits bounds an integer's digits so that no accepted integer
// overflows int64 (nor int on a 64-bit platform); a longer one goes to
// json.Unmarshal.
const maxCanonDigits = 18

// int consumes an integer as strconv.AppendInt writes it: an optional '-',
// no leading zero, no "-0". Zero is accepted only for a field that is never
// omitted (zeroOK): AppendRecord leaves an omitempty zero out.
func (d *canonDecoder) int(zeroOK bool) int64 {
	if d.bad {
		return 0
	}
	neg := len(d.p) > 0 && d.p[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var v int64
	start := i
	for i < len(d.p) && d.p[i] >= '0' && d.p[i] <= '9' {
		v = v*10 + int64(d.p[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > maxCanonDigits || (n > 1 && d.p[start] == '0') || (v == 0 && (neg || !zeroOK)) {
		d.bad = true
		return 0
	}
	d.p = d.p[i:]
	if neg {
		return -v
	}
	return v
}

// float consumes a non-zero number that appendJSONFloat writes back as the
// same bytes (zero is omitempty; Inf and NaN are never written).
func (d *canonDecoder) float() float64 {
	if d.bad {
		return 0
	}
	i := 0
	for i < len(d.p) && d.p[i] != ',' && d.p[i] != '}' {
		i++
	}
	tok := d.p[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		d.bad = true
		return 0
	}
	var buf [32]byte
	if string(appendJSONFloat(buf[:0], f)) != string(tok) {
		d.bad = true
		return 0
	}
	d.p = d.p[i:]
	return f
}

// str consumes a string AppendJSONString writes unescaped: no byte below
// ' ', no '"', '\\', '<', '>' or '&', valid UTF-8 and no U+2028/U+2029.
// An empty string is accepted only where AppendRecord writes one
// (emptyOK). A value in vocab comes back as vocab's string.
func (d *canonDecoder) str(vocab []string, emptyOK bool) string {
	if d.bad {
		return ""
	}
	if len(d.p) == 0 || d.p[0] != '"' {
		d.bad = true
		return ""
	}
	i := 1
	for i < len(d.p) {
		b := d.p[i]
		if b < utf8.RuneSelf {
			if b < ' ' || b == '\\' || b == '<' || b == '>' || b == '&' {
				d.bad = true
				return ""
			}
			if b == '"' {
				break
			}
			i++
			continue
		}
		c, size := utf8.DecodeRune(d.p[i:])
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			d.bad = true
			return ""
		}
		i += size
	}
	if i == len(d.p) || (i == 1 && !emptyOK) {
		d.bad = true
		return ""
	}
	raw := d.p[1:i]
	d.p = d.p[i+1:]
	for _, v := range vocab {
		if string(raw) == v {
			return v
		}
	}
	return string(raw)
}

// strs consumes a non-empty list of strings (AppendRecord omits an empty
// one) and its closing ']'; the opening '[' is part of the field prefix.
func (d *canonDecoder) strs() []string {
	// Size the list first: no accepted string holds a '"', so a ',' or ']'
	// outside quotes is structure.
	n, quoted := 1, false
	for _, b := range d.p {
		if b == '"' {
			quoted = !quoted
		} else if !quoted && b == ',' {
			n++
		} else if !quoted && b == ']' {
			break
		}
	}
	out := make([]string, 0, n)
	for !d.bad {
		out = append(out, d.str(nil, true))
		if d.field("]") {
			return out
		}
		d.expect(",")
	}
	return nil
}
