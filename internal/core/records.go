// Package core implements the paper's primary contribution: the failure
// data logger for Symbian OS smart phones (section 5). The logger is a
// daemon application started at phone boot, built from Active Objects:
//
//   - Heartbeat: periodically writes ALIVE records and, via the shutdown
//     notification, REBOOT/LOWBT/MAOFF records, enabling freeze and
//     self-shutdown detection (section 5.2);
//   - Panic Detector: subscribes to the Kernel Server's RDebug panic
//     notifications and consolidates panic context into the Log File;
//   - Running Applications Detector: samples the Application Architecture
//     Server;
//   - Log Engine: collects phone activity (calls, messages) from the
//     Database Log Server;
//   - Power Manager: reads battery state from the System Agent Server to
//     tell low-battery shutdowns from failures.
//
// The logger observes the phone exclusively through the simulated OS
// services — it never peeks at simulator ground truth.
package core

import (
	"bytes"
	"encoding/json"
	"strconv"

	"symfail/internal/sim"
)

// Default on-flash paths for the logger's files (mirroring Figure 1).
const (
	DefaultLogPath      = "logs/logfile"
	DefaultBeatsPath    = "logs/beats"
	DefaultRunAppPath   = "logs/runapp"
	DefaultActivityPath = "logs/activity"
	DefaultPowerPath    = "logs/power"
)

// BeatKind is the heartbeat record type of section 5.2.
type BeatKind string

// Heartbeat record kinds.
const (
	BeatAlive  BeatKind = "ALIVE"  // normal execution
	BeatReboot BeatKind = "REBOOT" // orderly shutdown (self or user)
	BeatLowBat BeatKind = "LOWBT"  // shutdown due to low battery
	BeatMAOff  BeatKind = "MAOFF"  // user deliberately stopped the logger
)

// Beat is the single heartbeat record kept on flash. Only the most recent
// record matters to the boot-time detector, so the file holds exactly one.
type Beat struct {
	Kind BeatKind `json:"kind"`
	Time int64    `json:"time"` // sim.Time in nanoseconds
}

// Detection classifies what the boot-time detector concluded from the last
// heartbeat record (section 5.2).
type Detection string

// Boot-time detection outcomes.
const (
	// DetectedFreeze: the last record was ALIVE, so power was lost without
	// an orderly shutdown — the phone froze and the user pulled the
	// battery.
	DetectedFreeze Detection = "freeze"
	// DetectedShutdown: the last record was REBOOT — either a
	// self-shutdown or a user power cycle; the reboot-duration analysis
	// (Figure 2) separates the two.
	DetectedShutdown Detection = "shutdown"
	// DetectedLowBattery / DetectedLoggerOff: explained shutdowns.
	DetectedLowBattery Detection = "low-battery"
	DetectedLoggerOff  Detection = "logger-off"
	// DetectedFirstBoot: no heartbeat file yet.
	DetectedFirstBoot Detection = "first-boot"
)

// Record kinds in the consolidated Log File.
const (
	KindBoot  = "boot"
	KindPanic = "panic"
)

// Record is one entry of the consolidated Log File the Panic Detector
// maintains. Boot records carry the detection of what ended the previous
// session; panic records carry the panic with the phone context gathered
// from the other active objects.
type Record struct {
	Kind string `json:"kind"`
	Time int64  `json:"time"`

	// Boot records.
	Boot       int       `json:"boot,omitempty"`
	OSVersion  string    `json:"os,omitempty"`
	PrevBeat   BeatKind  `json:"prevBeat,omitempty"`
	PrevTime   int64     `json:"prevTime,omitempty"`
	OffSeconds float64   `json:"offSeconds,omitempty"`
	Detected   Detection `json:"detected,omitempty"`

	// Panic records.
	Category string   `json:"category,omitempty"`
	PType    int      `json:"ptype,omitempty"`
	Apps     []string `json:"apps,omitempty"`
	Activity string   `json:"activity,omitempty"`

	// Boot-time log recovery tally (set only when the previous session's
	// Log File was damaged — torn tail or bit rot — and had to be
	// repaired): how many records survived and how many corrupt regions
	// were excised.
	LogSalvaged int `json:"salvaged,omitempty"`
	LogLost     int `json:"lost,omitempty"`
}

// When returns the record timestamp as a sim.Time.
func (r Record) When() sim.Time { return sim.Time(r.Time) }

// PanicKey formats the panic identity the way the paper's tables do
// ("KERN-EXEC 3"). Empty for non-panic records.
func (r Record) PanicKey() string {
	if r.Kind != KindPanic {
		return ""
	}
	return r.Category + " " + strconv.Itoa(r.PType)
}

// EncodeRecord serialises a record as one JSON line.
func EncodeRecord(r Record) []byte {
	return AppendRecordLine(make([]byte, 0, 96), r)
}

// ParseRecords parses a Log File. Framed logs (the on-flash format since
// crash-safe logging — first byte is FrameMagic) go through frame recovery
// so only checksum-verified records surface; legacy bare JSON lines are
// parsed line-wise with truncated or corrupt lines skipped — flash writes
// can be cut short by power loss, and a log analyser must survive that.
func ParseRecords(data []byte) []Record {
	var out []Record
	_ = ScanRecords(data, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// ParseRecordLines is ParseRecords with each record's AppendRecordLine
// bytes. A canonical record's line aliases data (its frame's payload and
// closing '\n', or its legacy line), so parsing re-encodes only the records
// written in some other form.
func ParseRecordLines(data []byte) []RecordLine {
	var out []RecordLine
	_ = eachLine(data, func(line []byte) error {
		out = appendRecordLine(out, line)
		return nil
	})
	return out
}

// ScanRecords parses a Log File incrementally, calling fn once per record
// in log order without materialising the record slice — the streaming
// analysis path reads whole exported datasets this way with one device's
// log in memory at a time. Skip semantics are identical to ParseRecords
// (which is built on it): corrupt frames, blank lines and unparsable JSON
// lines are dropped. An error from fn stops the scan and is returned.
func ScanRecords(data []byte, fn func(Record) error) error {
	return eachLine(data, func(line []byte) error {
		r, ok := DecodeRecord(bytes.TrimSuffix(line, newline))
		if !ok {
			return nil
		}
		return fn(r)
	})
}

// eachLine calls fn with every record candidate of a Log File in log order:
// a framed log's intact frame payloads, each with the '\n' that closes its
// frame, or a legacy log's lines, each with its '\n' (the last may lack
// one). An error from fn stops the scan and is returned.
func eachLine(data []byte, fn func(line []byte) error) error {
	if len(data) > 0 && data[0] == FrameMagic {
		return eachFrameLine(data, fn)
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i+1], data[i+1:]
		} else {
			data = nil
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// eachFrameLine is eachLine over the intact frames frame recovery finds in
// data, wherever data starts.
func eachFrameLine(data []byte, fn func(line []byte) error) error {
	for _, payload := range RecoverLog(data).Payloads {
		if err := fn(frameLine(payload)); err != nil {
			return err
		}
	}
	return nil
}

// frameLine extends a payload decodeFrame returned by one byte, to the '\n'
// that closes its frame: the payload is a subslice of the frame, and an
// intact frame's last byte is that '\n'.
func frameLine(payload []byte) []byte { return payload[:len(payload)+1] }

// ScanSettled parses a growing framed log from byte offset off, for a
// reader that has already consumed the records before off, and appends
// each record with its line (see ParseRecordLines) to dst. It decodes
// intact frames from off and stops at the first one that fails to decode:
// that point is settled, because the bytes before it can no longer change
// what ParseRecords sees there however the log grows, while the bytes past
// it can (a torn tail completes on the next append). The records past the
// settled point are still returned; the next call re-reads them from
// settled. off must be 0 or a settled offset an earlier call returned for a
// prefix of data. Frame recovery scans left to right, so
//
//	ParseRecordLines(data) == ParseRecordLines(data[:off]) ++ recs[len(dst):]
//
// Unframed (legacy JSON-lines) logs never settle: they return every record
// with settled 0. A caller that scans often passes its own slice back,
// emptied; a nil dst is sized from the bytes past off, for as many
// logged records as minRecordBytes allows, so the scan of a log never
// regrows it.
func ScanSettled(dst []RecordLine, data []byte, off int) (recs []RecordLine, settled int) {
	if dst == nil {
		dst = make([]RecordLine, 0, (len(data)-off)/minRecordBytes+1)
	}
	recs = dst
	if len(data) == 0 || data[0] != FrameMagic {
		_ = eachLine(data, func(line []byte) error {
			recs = appendRecordLine(recs, line)
			return nil
		})
		return recs, 0
	}
	settled = off
	for settled < len(data) {
		payload, size, ok := decodeFrame(data[settled:])
		if !ok {
			break
		}
		recs = appendRecordLine(recs, frameLine(payload))
		settled += size
	}
	if settled < len(data) {
		_ = eachFrameLine(data[settled:], func(line []byte) error {
			recs = appendRecordLine(recs, line)
			return nil
		})
	}
	return recs, settled
}

// minRecordBytes is about the fewest bytes a logged record takes in a
// framed log: the frame's header and newline around the shortest payload
// the logger writes, a boot record's kind, time and boot number.
const minRecordBytes = 48

// EncodeBeat serialises the heartbeat record.
func EncodeBeat(b Beat) []byte {
	return AppendBeat(make([]byte, 0, 48), b)
}

// ParseBeat parses the heartbeat file and returns the most recent valid
// beat. ok is false when the file is absent or corrupt (treated as a first
// boot). Framed files (the crash-safe append-only format) are scanned with
// frame recovery and the last intact beat wins — a torn append therefore
// falls back to the previous beat instead of destroying the detector's
// evidence; legacy single-JSON files parse directly.
func ParseBeat(data []byte) (Beat, bool) {
	if len(data) > 0 && data[0] == FrameMagic {
		// The newest intact frame is a beat in every file the logger
		// writes: find it without listing the payloads, and list them
		// only to fall back to earlier frames.
		var last []byte
		if scanLog(data, func(p []byte) { last = p }).Salvaged > 0 {
			if b, ok := parseBeatPayload(last); ok {
				return b, true
			}
		}
		payloads := RecoverLog(data).Payloads
		for i := len(payloads) - 2; i >= 0; i-- {
			if b, ok := parseBeatPayload(payloads[i]); ok {
				return b, true
			}
		}
		return Beat{}, false
	}
	return parseBeatPayload(data)
}

func parseBeatPayload(data []byte) (Beat, bool) {
	var b Beat
	if err := json.Unmarshal(data, &b); err != nil {
		return Beat{}, false
	}
	switch b.Kind {
	case BeatAlive, BeatReboot, BeatLowBat, BeatMAOff:
		return b, true
	default:
		return Beat{}, false
	}
}
