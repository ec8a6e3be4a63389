// Package ackorderfix exercises the ackorder analyzer: replies to a
// connection must follow the WAL append+sync on every control-flow path,
// and no append may trail a reply.
package ackorderfix

import (
	"fmt"
	"net"
)

// WAL stands in for the collection tier's CrashStore.
type WAL struct{}

func (w *WAL) Append(name string, rec []byte) {}
func (w *WAL) Sync(name string)               {}

type server struct {
	wal *WAL
}

// Good: append, sync, then acknowledge.
func (s *server) handleGood(conn net.Conn, rec []byte) {
	s.wal.Append("wal", rec)
	s.wal.Sync("wal")
	fmt.Fprint(conn, "OK\n")
}

// Bad: the reply races the sync.
func (s *server) handleEarlyAck(conn net.Conn, rec []byte) {
	s.wal.Append("wal", rec)
	fmt.Fprint(conn, "OK\n") // want: reply before sync
	s.wal.Sync("wal")
}

// Bad: the append is not covered by the acknowledgement already sent.
func (s *server) handleLateAppend(conn net.Conn, rec []byte) {
	fmt.Fprint(conn, "OK\n")
	s.wal.Append("wal", rec) // want: append after reply
}

// commit is the boolean-correlated idiom from the real server: crash paths
// return false with the append possibly unsynced.
func (s *server) commit(rec []byte, crashed bool) bool {
	s.wal.Append("wal", rec)
	if crashed {
		return false
	}
	s.wal.Sync("wal")
	return true
}

// Good: the caller honors the verdict, so only the synced path replies.
func (s *server) handleCommit(conn net.Conn, rec []byte, crashed bool) {
	if !s.commit(rec, crashed) {
		return
	}
	fmt.Fprint(conn, "OK\n")
}

// Bad: ignoring the verdict acknowledges the crashed path too.
func (s *server) handleIgnoresVerdict(conn net.Conn, rec []byte, crashed bool) {
	s.commit(rec, crashed)
	fmt.Fprint(conn, "OK\n") // want: reply on the unsynced path
}

// Good: an ERR rejection is not an acknowledgement.
func (s *server) handleReject(conn net.Conn, rec []byte) {
	s.wal.Append("wal", rec)
	fmt.Fprintf(conn, "ERR %s\n", "backpressure")
	s.wal.Sync("wal")
}

// Bad on the second iteration only: the loop's first pass acknowledges,
// then the next append trails that reply.
func (s *server) handleLoop(conn net.Conn, recs [][]byte) {
	for _, rec := range recs {
		s.wal.Append("wal", rec) // want: append after first-iteration reply
		s.wal.Sync("wal")
		fmt.Fprint(conn, "OK\n")
	}
}

// Suppressed: a deliberate early acknowledgement with a stated reason.
func (s *server) handleAllowed(conn net.Conn, rec []byte) {
	s.wal.Append("wal", rec)
	//symlint:allow ackorder fixture demonstrates a reasoned suppression
	fmt.Fprint(conn, "OK\n")
	s.wal.Sync("wal")
}

// applyChunk mirrors the real server's one chunk-apply step, shared by the
// CHUNK verb and a replica's HANDOFF chunk: commit, then acknowledge.
func (s *server) applyChunk(conn net.Conn, chunk []byte, crashed bool) {
	if !s.commit(chunk, crashed) {
		return
	}
	fmt.Fprintf(conn, "OK %d\n", len(chunk))
}

// Good: a replica refuses a chunk cut against another prefix with a stale
// rejection, which acknowledges nothing, and applies the rest through the
// shared step.
func (s *server) handleHandoffChunk(conn net.Conn, chunk []byte, stale, crashed bool) {
	if stale {
		fmt.Fprintf(conn, "ERR stale %d\n", 0)
		return
	}
	s.applyChunk(conn, chunk, crashed)
}

// Bad: the replica tells the owner OK before its copy of the chunk is
// synced, so the owner may count a write quorum that a crash undoes.
func (s *server) handleHandoffChunkEarlyAck(conn net.Conn, chunk []byte) {
	s.wal.Append("wal", chunk)
	fmt.Fprintf(conn, "OK %d\n", len(chunk)) // want: reply before sync
	s.wal.Sync("wal")
}
