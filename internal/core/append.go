package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Flattened, append-style encoders for the record hot path. The logger
// appends a framed record per heartbeat and per panic on every device, the
// collection tier keys its dedup maps on encoded records, and the analysis
// tier re-encodes records while merging — at fleet scale the reflective
// encoding/json walk and its per-call allocations dominate. These encoders
// produce byte-identical output to encoding/json (same field order, same
// omitempty, same HTML-escaping rules, same float format — pinned by a
// differential test and fuzzer against the stdlib) while appending into a
// caller-owned buffer, so steady-state encoding allocates only when the
// scratch has to grow.

// AppendRecord appends r's JSON object (exactly json.Marshal's bytes, no
// trailing newline) to dst and returns the extended buffer.
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, r.Kind)
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, r.Time, 10)
	if r.Boot != 0 {
		dst = append(dst, `,"boot":`...)
		dst = strconv.AppendInt(dst, int64(r.Boot), 10)
	}
	if r.OSVersion != "" {
		dst = append(dst, `,"os":`...)
		dst = AppendJSONString(dst, r.OSVersion)
	}
	if r.PrevBeat != "" {
		dst = append(dst, `,"prevBeat":`...)
		dst = AppendJSONString(dst, string(r.PrevBeat))
	}
	if r.PrevTime != 0 {
		dst = append(dst, `,"prevTime":`...)
		dst = strconv.AppendInt(dst, r.PrevTime, 10)
	}
	if r.OffSeconds != 0 {
		dst = append(dst, `,"offSeconds":`...)
		dst = appendJSONFloat(dst, r.OffSeconds)
	}
	if r.Detected != "" {
		dst = append(dst, `,"detected":`...)
		dst = AppendJSONString(dst, string(r.Detected))
	}
	if r.Category != "" {
		dst = append(dst, `,"category":`...)
		dst = AppendJSONString(dst, r.Category)
	}
	if r.PType != 0 {
		dst = append(dst, `,"ptype":`...)
		dst = strconv.AppendInt(dst, int64(r.PType), 10)
	}
	if len(r.Apps) > 0 {
		dst = append(dst, `,"apps":[`...)
		for i, app := range r.Apps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, app)
		}
		dst = append(dst, ']')
	}
	if r.Activity != "" {
		dst = append(dst, `,"activity":`...)
		dst = AppendJSONString(dst, r.Activity)
	}
	if r.LogSalvaged != 0 {
		dst = append(dst, `,"salvaged":`...)
		dst = strconv.AppendInt(dst, int64(r.LogSalvaged), 10)
	}
	if r.LogLost != 0 {
		dst = append(dst, `,"lost":`...)
		dst = strconv.AppendInt(dst, int64(r.LogLost), 10)
	}
	return append(dst, '}')
}

// AppendRecordLine appends r as one JSON line (EncodeRecord's bytes).
func AppendRecordLine(dst []byte, r Record) []byte {
	return append(AppendRecord(dst, r), '\n')
}

// AppendBeat appends b's JSON object to dst (json.Marshal's bytes; Beat
// has no omitempty fields).
func AppendBeat(dst []byte, b Beat) []byte {
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, string(b.Kind))
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, b.Time, 10)
	return append(dst, '}')
}

// AppendFrame appends payload wrapped in a checksummed frame (EncodeFrame's
// bytes) to dst.
func AppendFrame(dst, payload []byte) []byte {
	return AppendFrameParts(dst, payload)
}

// AppendFrameParts appends one checksummed frame whose payload is the
// concatenation of parts: AppendFrame(dst, concat(parts)) without the
// concatenated copy. Each part is copied once, into dst, and checksummed
// there, so the parts themselves never escape (a caller may build one on
// its stack).
func AppendFrameParts(dst []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	start := len(dst)
	dst = AppendFrameHeader(slices.Grow(dst, FrameSize(n)), n, 0)
	var sum uint32
	for _, p := range parts {
		i := len(dst)
		dst = append(dst, p...)
		sum = crc32.Update(sum, frameTable, dst[i:])
	}
	putHex(dst[start+1:start+9], sum)
	return append(dst, '\n')
}

// AppendFrameHeader appends the header of a frame around an n-byte payload
// whose CRC-32C is sum. The frame is that header, the payload, then '\n':
// a writer that streams the checksum (crc32.Update) over bytes it does not
// copy can emit the frame as three parts.
func AppendFrameHeader(dst []byte, n int, sum uint32) []byte {
	if n > MaxFramePayload {
		// Records are small JSON objects; a payload this large is a
		// programming error, not flash damage.
		panic(fmt.Sprintf("core: frame payload %d bytes exceeds %d", n, MaxFramePayload))
	}
	start := len(dst)
	dst = append(dst, FrameMagic, 0, 0, 0, 0, 0, 0, 0, 0, ':', 0, 0, 0, 0, 0, 0, ':')
	putHex(dst[start+1:start+9], sum)
	putHex(dst[start+10:start+16], uint32(n))
	return dst
}

// FrameSize is the encoded size of a frame around an n-byte payload.
func FrameSize(n int) int { return frameHeaderLen + n + 1 }

const hexDigits = "0123456789abcdef"

// putHex writes v into b as exactly len(b) lowercase hex digits.
func putHex(b []byte, v uint32) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// appendJSONFloat matches encoding/json's float64 encoder: %f in the
// mid-range, %e with a trimmed two-digit exponent outside it. Non-finite
// values panic, mirroring json.Marshal's unsupported-value error (the
// logger never produces them).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("core: unsupported float value %v in record", f))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-07" style exponents to "e-7", as the stdlib does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendJSONString appends s as encoding/json's default (HTML-escaping)
// string encoder writes it: printable ASCII passes through except ", \,
// <, >, &; control bytes use the short escapes or \u00xx; invalid UTF-8
// becomes �; U+2028/U+2029 are escaped for JS embedding.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
