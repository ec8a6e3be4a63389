package collect

import (
	"net"
	"testing"

	"symfail/internal/core"
)

// TestAllocBudgets is the collection tier's part of the repo-wide
// allocation ratchet (the root package's TestAllocBudgets): the CHUNK
// path's steps, measured here because they are unexported. Budgets only
// ever go down. Skipped under -race (instrumentation allocates).
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cases := []struct {
		name   string
		budget float64
		// setup returns the op to measure, already warmed to steady state.
		setup func() func()
	}{
		{
			// Each record's line is copied into the device's arena and
			// indexed by checksum and length: no string per record, and
			// a batch of new records comes back as itself (4 strings and
			// 3 regrowths of the fresh slice per batch in a map of
			// strings).
			name: "collect: Ledger.mark of fresh records", budget: 0,
			setup: func() func() {
				batches := chunkBatches(allocRuns+1, 4)
				l := NewLedger()
				i := 0
				return func() {
					l.mark("phone-01", batches[i], true)
					i++
				}
			},
		},
		{
			// Head, base64 and frame are written once, into the server's
			// scratch (3 buffers per entry when each had its own).
			name: "collect: WAL entry encode into warm scratch", budget: 0,
			setup: func() func() {
				data := chunkStream(8)
				buf := appendWALEntry(nil, walEntry{Op: opChunk, Dev: "phone-01", Off: 4096, Data: data})
				return func() {
					buf = appendWALEntry(buf[:0], walEntry{Op: opChunk, Dev: "phone-01", Off: 4096, Data: data})
				}
			},
		},
		{
			// A CHUNK of two new records appended to a device's stream on
			// a server without a store: scan, ledger, dataset append and
			// the OK reply. The records decode without allocating, so
			// what is left is the stream's, log's and arena's amortised
			// growth.
			name: "collect: one CHUNK apply on a warm in-memory server", budget: 0,
			setup: func() func() {
				srv := &Server{ds: NewDataset(), streams: map[string][]byte{}, settled: map[string]int{},
					cfg: ServerConfig{MaxStreamBytes: MaxUploadBytes, ledger: NewLedger()}}
				conn := &serverConn{Conn: discardConn{}}
				var chunks [][]byte
				for _, batch := range chunkBatches(allocRuns+9, 2) {
					var chunk []byte
					for _, rl := range batch {
						chunk = core.AppendFrame(chunk, rl.Line[:len(rl.Line)-1])
					}
					chunks = append(chunks, chunk)
				}
				i := 0
				op := func() {
					srv.mu.Lock()
					srv.applyChunkLocked(conn, "phone-01", len(srv.streams["phone-01"]), chunks[i], false)
					i++
				}
				for j := 0; j < 8; j++ {
					op()
				}
				return op
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			op := tc.setup()
			if avg := testing.AllocsPerRun(allocRuns, op); avg > tc.budget {
				t.Errorf("%s: %.1f allocs/op in steady state, budget %g", tc.name, avg, tc.budget)
			}
		})
	}
}

// allocRuns is how many times each budget's op runs; testing.AllocsPerRun
// runs it once more to warm up.
const allocRuns = 500

// chunkBatches returns n batches of per new boot records each, every one
// later than the one before, in the order a phone logs them. Boot records
// without an OS version decode without allocating.
func chunkBatches(n, per int) [][]core.RecordLine {
	out := make([][]core.RecordLine, n)
	for i := range out {
		var lines []byte
		for j := 0; j < per; j++ {
			k := int64(i*per + j)
			lines = core.AppendRecordLine(lines, core.Record{
				Kind: core.KindBoot, Time: 1_000_000_000 * (k + 1), Boot: int(k) + 1,
				PrevBeat: core.BeatAlive, PrevTime: 1_000_000_000*k + 5, Detected: core.DetectedFreeze,
			})
		}
		out[i] = core.ParseRecordLines(lines)
	}
	return out
}

// chunkStream returns n framed boot records, as a CHUNK carries them.
func chunkStream(n int) []byte {
	var data []byte
	for _, rl := range chunkBatches(1, n)[0] {
		data = core.AppendFrame(data, rl.Line[:len(rl.Line)-1])
	}
	return data
}

// discardConn is a connection whose writes go nowhere: a reply to a
// request the test applies directly.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
