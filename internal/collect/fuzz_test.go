package collect

import (
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"testing"
	"time"
)

// fuzzDial throws raw bytes at the server and drains whatever comes back.
// Errors are expected — the server rejects almost everything — the property
// under test is that it survives and stays responsive. The read deadline is
// short: on inputs that leave the server legitimately waiting for more
// bytes (a header with no newline, an undelivered body) there is no reply
// to drain, and the close is what unblocks the handler.
func fuzzDial(addr string, payload []byte) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(200 * time.Millisecond))
	_, _ = conn.Write(payload)
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
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

// FuzzServerHeader feeds arbitrary bytes to a live durable server — header
// line, body, framing and all — and asserts the server neither panics nor
// wedges: after every input a well-formed OFFSET round-trip must still
// succeed. The corpus seeds every verb, valid and malformed.
func FuzzServerHeader(f *testing.F) {
	body := []byte("hello")
	sum := crc32.Checksum(body, castagnoli)
	f.Add([]byte(fmt.Sprintf("CHUNK fuzzdev 0 %d %08x\n%s", len(body), sum, body)))
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
	f.Add([]byte("CHUNK dev"))                  // no newline: header times out short
	f.Add([]byte{0x7e, 0x00, 0xff, 0x0a, 0x80}) // frame-magic garbage
	f.Add(make([]byte, MaxHeaderBytes+32))      // oversized header line

	ds := NewDataset()
	srv, err := NewServerWith("127.0.0.1:0", ds, ServerConfig{
		MaxStreamBytes: 1 << 16,
		Store:          NewCrashStore(nil),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	addr := srv.Addr()

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDial(addr, data)
		// Liveness: the server must still answer a well-formed query.
		if _, _, err := (NetTransport{}).Offset(addr, "liveness-probe"); err != nil {
			t.Fatalf("server unresponsive after fuzz input %q: %v", data, err)
		}
	})
}

// TestServerNoGoroutineLeakAfterBadTraffic closes the loop the fuzz target
// cannot: after a burst of malformed and abandoned connections, closing the
// server returns the process to its original goroutine count — every
// per-connection goroutine exited.
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

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
