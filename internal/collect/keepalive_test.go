package collect

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"symfail/internal/core"
)

// closeBudget is how long a Close may take with idle pooled connections
// open; the server's idle deadline is connDeadline, far beyond it.
const closeBudget = time.Second

// openConns returns how many connections the server is serving, and how
// many of those are waiting idle for their next request.
func (s *Server) openConns() (open, idle int) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for _, busy := range s.conns {
		if !busy {
			idle++
		}
	}
	return len(s.conns), idle
}

// keepAliveLog is a small valid log whose records differ by seed.
func keepAliveLog(seed int64) []byte {
	return core.EncodeRecord(core.Record{Kind: core.KindPanic, Category: "KERN-EXEC", PType: 3, Time: seed})
}

// poolIdleConns leaves n idle pooled connections to addr: n concurrent
// requests each need a connection of their own, and each goes back to the
// pool after its OK.
func poolIdleConns(t *testing.T, addr string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := NetTransport{}.Offset(addr, fmt.Sprintf("idle-%02d", i))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitIdle waits for the server to hold at least one idle connection: the
// handler marks a connection idle just after it writes the reply.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, idle := s.openConns(); idle > 0 {
			return
		}
	}
	t.Fatal("no idle connection after the pooled requests")
}

// closeWithin fails the test if close takes longer than closeBudget.
func closeWithin(t *testing.T, what string, close func() error) {
	t.Helper()
	start := time.Now()
	if err := close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > closeBudget {
		t.Fatalf("%s.Close took %v with idle pooled connections open (budget %v)", what, took, closeBudget)
	}
}

// TestKeepAliveReusesOneConnection: one client issuing requests in turn
// rides a single connection — the server never sees a second one.
func TestKeepAliveReusesOneConnection(t *testing.T) {
	s, _ := newTestServer(t)
	var data []byte
	for i := int64(1); i <= 10; i++ {
		off := len(data)
		rec := keepAliveLog(i)
		data = append(data, rec...)
		if n, err := (NetTransport{}).UploadChunk(s.Addr(), "phone-01", off, rec); err != nil || n != len(data) {
			t.Fatalf("chunk %d: ack %d, %v", i, n, err)
		}
		if n, _, err := (NetTransport{}).Offset(s.Addr(), "phone-01"); err != nil || n != len(data) {
			t.Fatalf("offset %d: %d, %v", i, n, err)
		}
	}
	if open, _ := s.openConns(); open != 1 {
		t.Fatalf("server holds %d connections after 20 requests in turn, want 1", open)
	}
}

// TestKeepAliveServerCloseWithIdleConns: Close closes the idle pooled
// connections instead of waiting out their deadline.
func TestKeepAliveServerCloseWithIdleConns(t *testing.T) {
	s, err := NewServerWith("127.0.0.1:0", NewDataset(), ServerConfig{Store: NewCrashStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	poolIdleConns(t, s.Addr(), 4)
	waitIdle(t, s)
	closeWithin(t, "Server", s.Close)
}

// TestKeepAliveSupervisorCloseWithIdleConns: the same for a supervisor's
// live incarnation.
func TestKeepAliveSupervisorCloseWithIdleConns(t *testing.T) {
	sup, err := NewSupervisor("127.0.0.1:0", NewDataset(), SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := uploadLog(sup.Addr(), "phone-01", keepAliveLog(1)); err != nil {
		t.Fatal(err)
	}
	poolIdleConns(t, sup.Addr(), 4)
	waitIdle(t, sup.cur.Load())
	closeWithin(t, "Supervisor", sup.Close)
}

// TestKeepAliveNextRequestReachesNewIncarnation: after an injected kill a
// pooled client's next request reaches the replacement, with no retry.
// A kill after the ACK is the hard case: the client holds an OK from the
// dying incarnation, whose connection must not go back to the pool. A
// kill before the ACK fails the killed request itself, and only that one.
func TestKeepAliveNextRequestReachesNewIncarnation(t *testing.T) {
	sup, err := NewSupervisor("127.0.0.1:0", NewDataset(), SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	var data []byte
	const kills = 40
	for i := 0; i < kills; i++ {
		p := CrashAfterAck
		if i%2 == 1 {
			p = CrashBeforeWALSync
		}
		if !sup.InjectKill(p) {
			t.Fatalf("kill %d not armed", i)
		}
		rec := keepAliveLog(int64(i + 1))
		n, err := (NetTransport{}).UploadChunk(sup.Addr(), "phone-01", len(data), rec)
		switch {
		case p == CrashAfterAck && (err != nil || n != len(data)+len(rec)):
			t.Fatalf("kill %d (%v): the dying incarnation's ACK was lost: ack %d, %v", i, p, n, err)
		case p == CrashBeforeWALSync && err == nil:
			t.Fatalf("kill %d (%v): the killed request was answered", i, p)
		}
		if p == CrashAfterAck {
			data = append(data, rec...)
		}
		if n, _, err := (NetTransport{}).Offset(sup.Addr(), "phone-01"); err != nil || n != len(data) {
			t.Fatalf("kill %d (%v): next request: stream %d (want %d), %v", i, p, n, len(data), err)
		}
	}
	if c, r := sup.Crashes(), sup.Restarts(); c != kills || r != kills {
		t.Fatalf("crashes %d, restarts %d, want %d each", c, r, kills)
	}
}

// servesPooledConn reports whether srv is serving the default pool's
// newest idle connection to addr.
func servesPooledConn(srv *Server, addr string) bool {
	defaultPool.mu.Lock()
	local := ""
	for _, c := range defaultPool.idle {
		if c.addr == addr {
			local = c.LocalAddr().String()
		}
	}
	defaultPool.mu.Unlock()
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	for conn := range srv.conns {
		if local != "" && conn.RemoteAddr().String() == local {
			return true
		}
	}
	return false
}

// TestBeatAfterKillMissesOrReachesNewIncarnation: a beat rides a pooled
// connection, and one pooled before a kill never carries a beat to the
// dead incarnation: the next beat is a miss, or the replacement answers
// it.
func TestBeatAfterKillMissesOrReachesNewIncarnation(t *testing.T) {
	sup, err := NewSupervisor("127.0.0.1:0", NewDataset(), SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	addr := sup.Addr()
	const kills = 10
	for i := 0; i < kills; i++ {
		if err := Ping(addr); err != nil {
			t.Fatalf("kill %d: beat before the kill: %v", i, err)
		}
		old := sup.cur.Load()
		if !servesPooledConn(old, addr) {
			t.Fatalf("kill %d: the beat left no pooled connection to the live incarnation", i)
		}
		if !sup.InjectKill(CrashBeforeWALSync) {
			t.Fatalf("kill %d not armed", i)
		}
		// The killed CHUNK goes over a pool of its own, so the beat's
		// connection is idle when the incarnation dies.
		var own Pool
		rec := keepAliveLog(int64(i + 1))
		header := fmt.Sprintf("CHUNK phone-%02d 0 %d %08x", i, len(rec), crc32.Checksum(rec, castagnoli))
		if reply, err := own.RoundTrip(addr, header, rec); err == nil {
			t.Fatalf("kill %d: the killed request was answered %q", i, reply)
		}
		own.Close()
		if err := Ping(addr); err == nil {
			if cur := sup.cur.Load(); cur == old || !servesPooledConn(cur, addr) {
				t.Fatalf("kill %d: a beat after the kill was answered, but not by the new incarnation", i)
			}
		}
		if !sup.Settle(5 * time.Second) {
			t.Fatalf("kill %d: restart did not settle", i)
		}
	}
	if c, r := sup.Crashes(), sup.Restarts(); c != kills || r != kills {
		t.Fatalf("crashes %d, restarts %d, want %d each", c, r, kills)
	}
}
