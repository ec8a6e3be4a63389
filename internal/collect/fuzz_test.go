package collect

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fuzzWedge bounds one fuzz exchange: a handler still running this long
// after its client hung up is wedged.
const fuzzWedge = 5 * time.Second

// pipeExchange drives one connection of the server's handler over net.Pipe
// — no socket, so no ephemeral ports and no read deadline to sit out. It
// writes payload while it reads up to replies reply lines, fewer if the
// server closes first. With awaitClose it then waits for the server to
// close the connection. Either way it hangs up once the server has taken
// the whole payload, and returns the lines read. It fails if a reply does
// not come, if the server keeps the connection open under awaitClose, or
// if the handler is still running fuzzWedge after the hang-up.
func pipeExchange(srv *Server, payload []byte, replies int, awaitClose bool) (string, error) {
	client, server := net.Pipe()
	defer client.Close()
	handled := make(chan struct{})
	go func() {
		srv.handle(server)
		close(handled)
	}()
	written := make(chan struct{})
	go func() {
		_ = client.SetWriteDeadline(time.Now().Add(fuzzWedge))
		_, _ = client.Write(payload)
		close(written)
	}()
	// The reader drains every reply, so the server never blocks on a
	// write, and hands over the first ones; lines closes at EOF. Its 64
	// slots outnumber the replies any caller reads, so a dropped line is
	// one nobody asked for.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		br := bufio.NewReader(client)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			select {
			case lines <- line:
			default:
			}
		}
	}()
	var got strings.Builder
	wedged := time.After(fuzzWedge)
	for open := true; open && (replies > 0 || awaitClose); {
		select {
		case line, ok := <-lines:
			if open = ok; ok {
				got.WriteString(line)
				replies--
			}
		case <-wedged:
			if replies > 0 {
				return got.String(), fmt.Errorf("reply missing %v after the input", fuzzWedge)
			}
			return got.String(), fmt.Errorf("connection still open %v after the input", fuzzWedge)
		}
	}
	<-written
	_ = client.Close()
	select {
	case <-handled:
	case <-time.After(fuzzWedge):
		return got.String(), fmt.Errorf("handler still running %v after the hang-up", fuzzWedge)
	}
	return got.String(), nil
}

// fireAndClose writes the payload and hangs up without waiting for a reply
// — the abusive client whose handler goroutine must still exit promptly.
func fireAndClose(addr string, payload []byte) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	_, _ = conn.Write(payload)
	_ = conn.Close()
}

// FuzzServerHeader feeds arbitrary bytes to a durable server's connection
// handler — header lines, bodies, framing and all, one request or several
// — then hangs up, and asserts the server neither panics nor wedges: the
// handler returns within fuzzWedge. After every input a fresh connection
// must carry two well-formed requests, each answered OK, and then be
// closed by the server after a malformed one's ERR. The handler runs over
// net.Pipe, so an input that leaves it waiting for more bytes ends at the
// hang-up rather than a read deadline; TestServerNoGoroutineLeakAfterBadTraffic
// covers the same traffic over real TCP. The corpus seeds every verb,
// valid and malformed, and several requests on one connection.
func FuzzServerHeader(f *testing.F) {
	body := []byte("hello")
	sum := crc32.Checksum(body, castagnoli)
	chunk := fmt.Sprintf("CHUNK fuzzdev 0 %d %08x\n%s", len(body), sum, body)
	f.Add([]byte(chunk))
	f.Add([]byte("OFFSET fuzzdev\n"))
	f.Add([]byte("FIN fuzzdev\n"))
	f.Add([]byte("CHUNK fuzzdev 0 5 00000000\nhello"))                                      // wrong checksum
	f.Add([]byte("CHUNK fuzzdev 0 999 deadbeef\nshort"))                                    // undelivered body
	f.Add([]byte("CHUNK fuzzdev 7 5 00000000\nhello"))                                      // gap
	f.Add([]byte("CHUNK fuzzdev -1 -1 zz\n"))                                               // unparsable numbers
	f.Add([]byte("CHUNK a b c d e f\n"))                                                    // too many fields
	f.Add([]byte(fmt.Sprintf("HANDOFF fuzzdev chunk %d %08x 0\n%s", len(body), sum, body))) // chunk without its stream CRC
	f.Add([]byte(fmt.Sprintf("HANDOFF fuzzdev bogus %d %08x\n%s", len(body), sum, body)))   // unknown kind
	f.Add([]byte("HANDOFF fuzzdev log 999 deadbeef\nshort"))                                // undelivered body
	f.Add([]byte(fmt.Sprintf("UPLOAD fuzzdev %d %08x\n%s", len(body), sum, body)))          // retired verb: ERR bad header
	f.Add([]byte("NOSUCHVERB x\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	f.Add([]byte("CHUNK dev"))                  // no newline: the hang-up ends the header
	f.Add([]byte{0x7e, 0x00, 0xff, 0x0a, 0x80}) // frame-magic garbage
	f.Add(make([]byte, MaxHeaderBytes+32))      // oversized header line
	f.Add([]byte("QUERY status\n"))
	f.Add([]byte(chunk + fmt.Sprintf("CHUNK fuzzdev %d %d %08x\n%s", len(body), len(body), sum, body))) // two CHUNKs, one connection
	f.Add([]byte(chunk + "QUERY status\n"))                                                             // a CHUNK, then a QUERY

	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{
		MaxStreamBytes: 1 << 16,
		Store:          NewCrashStore(nil),
		Query:          func(string, []string) (string, error) { return "{}", nil },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := pipeExchange(srv, data, 0, false); err != nil {
			t.Fatalf("server wedged by fuzz input %q: %v", data, err)
		}
		// Liveness and connection reuse: the server keeps serving a
		// connection after each OK and closes it after an ERR.
		got, err := pipeExchange(srv, []byte("OFFSET liveness-probe\nQUERY status\nNOSUCHVERB\n"), 3, true)
		replies := strings.Split(got, "\n")
		if err != nil || len(replies) != 4 || !strings.HasPrefix(replies[0], "OK ") ||
			replies[1] != "OK {}" || replies[2] != "ERR bad header" {
			t.Fatalf("server unresponsive after fuzz input %q: replies %q, %v", data, got, err)
		}
	})
}

// TestServerNoGoroutineLeakAfterBadTraffic closes the loop the fuzz target
// cannot: after a burst of malformed and abandoned connections, and with
// pooled idle connections open, closing the server returns the process to
// its original goroutine count — every per-connection goroutine exited.
func TestServerNoGoroutineLeakAfterBadTraffic(t *testing.T) {
	before := runtime.NumGoroutine()

	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{Store: NewCrashStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte("CHUNK leakdev 0 999999 deadbeef\n"), // declared body never sent
		[]byte("CHUNK leakdev 0 5 00000000\nxx"),    // short body
		[]byte("garbage with no newline"),
		[]byte("OFFSET leakdev\n"),
		{},
	}
	for i := 0; i < 20; i++ {
		fireAndClose(srv.Addr(), inputs[i%len(inputs)])
	}
	// Abandon a few connections without writing anything; Close must not
	// wait forever on them (the read deadline reaps them) — but to keep the
	// test fast, close them client-side first.
	for i := 0; i < 5; i++ {
		if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
			conn.Close()
		}
	}
	// Pooled clients leave idle connections open, whose handlers wait for
	// a next request; Close itself must end them, well inside the deadline.
	if err := uploadLog(srv.Addr(), "leakdev-ok", keepAliveLog(1)); err != nil {
		t.Fatal(err)
	}
	poolIdleConns(t, srv.Addr(), 3)
	waitIdle(t, srv)
	closeWithin(t, "Server", srv.Close)

	// Goroutine teardown is asynchronous after Close returns only for the
	// runtime's bookkeeping; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
