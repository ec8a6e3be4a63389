package collect

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
)

// TestUploaderSurvivesTotalAckLoss is the two-generals drill: every single
// acknowledgement is lost, yet the server ends up with every record
// exactly once and the client never re-ships the payload it already
// delivered (the OFFSET resync tells it the server is ahead).
func TestUploaderSurvivesTotalAckLoss(t *testing.T) {
	ds := NewDataset()
	srv, err := NewServer("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng := sim.NewEngine()
	d := phone.NewDevice("upl-ackloss", eng, quietConfig(11))
	l := core.Install(d, core.Config{})
	tr := NewFaultyTransport(nil, NetFaults{DropAckProb: 1}, sim.NewRand(99))
	u := AttachUploaderWith(d, srv.Addr(), l.Config().LogPath, UploaderConfig{
		Every:     6 * time.Hour,
		Transport: tr,
	})
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}

	if u.Successes() != 0 {
		t.Errorf("successes = %d with every ACK dropped", u.Successes())
	}
	if u.LastErr() == nil {
		t.Error("LastErr nil while permanently failing")
	}
	// The data still arrived — the transfers themselves succeeded — and
	// the idempotent merge kept every record single.
	flash, _ := d.FS().Read(l.Config().LogPath)
	want := core.ParseRecords(flash)
	if len(want) == 0 {
		t.Fatal("nothing logged on flash")
	}
	counts := make(map[string]int)
	for _, r := range ds.Records("upl-ackloss") {
		counts[string(core.EncodeRecord(r))]++
	}
	for _, r := range want {
		if counts[string(core.EncodeRecord(r))] != 1 {
			t.Errorf("record %s present %d times server-side, want exactly 1",
				core.EncodeRecord(r), counts[string(core.EncodeRecord(r))])
		}
	}
	// After the first delivery the resync discovers the server is already
	// caught up, so later ticks re-send only the (empty) tail.
	if _, _, _, lost := tr.Injected(); lost < 2 {
		t.Errorf("ack-loss injected %d times, want every attempt", lost)
	}
}

// TestUploaderDeliversThroughFaultyNetwork runs the uploader against a
// 20%-faulty transport with retries enabled and requires the full log to
// land server-side anyway, each record exactly once.
func TestUploaderDeliversThroughFaultyNetwork(t *testing.T) {
	ds := NewDataset()
	srv, err := NewServer("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng := sim.NewEngine()
	d := phone.NewDevice("upl-flaky", eng, quietConfig(12))
	l := core.Install(d, core.Config{})
	faults := NetFaults{RefuseProb: 0.08, DropProb: 0.04, CorruptProb: 0.04, DropAckProb: 0.04}
	u := AttachUploaderWith(d, srv.Addr(), l.Config().LogPath, UploaderConfig{
		Every:     6 * time.Hour,
		RetryBase: 15 * time.Minute,
		RetryMax:  3 * time.Hour,
		Rng:       sim.NewRand(5),
		Transport: NewFaultyTransport(nil, faults, sim.NewRand(6)),
	})
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(10 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}

	if u.Successes() == 0 {
		t.Fatal("no upload ever succeeded through the faulty network")
	}
	flash, _ := d.FS().Read(l.Config().LogPath)
	counts := make(map[string]int)
	for _, r := range ds.Records("upl-flaky") {
		counts[string(core.EncodeRecord(r))]++
	}
	for _, r := range core.ParseRecords(flash) {
		if counts[string(core.EncodeRecord(r))] != 1 {
			t.Errorf("record %s present %d times server-side", core.EncodeRecord(r), counts[string(core.EncodeRecord(r))])
		}
	}
}

// TestFaultyTransportDeterministic: the same RNG seed must produce the
// identical injected-fault sequence — fault injection is a pure function
// of the seed.
func TestFaultyTransportDeterministic(t *testing.T) {
	ds := NewDataset()
	srv, err := NewServer("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	run := func() (errs []string, injected [4]int) {
		tr := NewFaultyTransport(nil, NetFaults{RefuseProb: 0.3, DropProb: 0.2, CorruptProb: 0.2, DropAckProb: 0.2}, sim.NewRand(777))
		chunk := []byte("~deadbeef:000002:{}\n")
		for i := 0; i < 40; i++ {
			_, err := tr.UploadChunk(srv.Addr(), "det", i*0, chunk)
			if err != nil {
				errs = append(errs, err.Error())
			} else {
				errs = append(errs, "ok")
			}
		}
		injected[0], injected[1], injected[2], injected[3] = tr.Injected()
		return errs, injected
	}
	errs1, inj1 := run()
	errs2, inj2 := run()
	if inj1 != inj2 {
		t.Fatalf("injected fault counts differ across identical runs: %v vs %v", inj1, inj2)
	}
	if strings.Join(errs1, "|") != strings.Join(errs2, "|") {
		t.Fatal("fault sequences differ across identical seeds")
	}
	if inj1[0] == 0 || inj1[1] == 0 || inj1[2] == 0 {
		t.Errorf("fault mix did not exercise every mode: %v", inj1)
	}
}

// TestIsTransientNamesTransportWindows: every client verb's transport-level
// failure — a dial, a request write, a lost reply — is a window to wait
// out, while a parsed protocol rejection is a real answer.
func TestIsTransientNamesTransportWindows(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("collect: dial 127.0.0.1:1: %w", syscall.ECONNREFUSED), true},
		{fmt.Errorf("collect: send request: %w", syscall.EPIPE), true},
		{fmt.Errorf("collect: send request: %w", syscall.ECONNRESET), true},
		{fmt.Errorf("collect: read reply: %w", io.EOF), true},
		{errors.New("collect: server rejected chunk: ERR shard unavailable"), true},
		{errors.New("collect: server rejected chunk: ERR checksum mismatch"), false},
		{nil, false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestServerRejectsOversizedHeader: a client streaming an endless header
// line is cut off at MaxHeaderBytes instead of growing the server's
// buffer.
func TestServerRejectsOversizedHeader(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("CHUNK " + strings.Repeat("x", MaxHeaderBytes+32))); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "ERR") {
		t.Errorf("oversized header accepted: %q", reply)
	}
}

// TestServerChunkProtocol exercises the resumable verbs over the raw wire:
// appends, the gap error, rewinds and the offset query.
func TestServerChunkProtocol(t *testing.T) {
	srv, ds := newTestServer(t)
	tr := NetTransport{}

	// Fresh device: offset query says 0.
	if n, _, err := tr.Offset(srv.Addr(), "proto"); err != nil || n != 0 {
		t.Fatalf("Offset on fresh device = %d, %v", n, err)
	}
	recA := core.EncodeRecord(core.Record{Kind: core.KindBoot, Time: 1, Boot: 1, Detected: core.DetectedFirstBoot})
	recB := core.EncodeRecord(core.Record{Kind: core.KindPanic, Time: 2, Category: "USER", PType: 11})
	if acked, err := tr.UploadChunk(srv.Addr(), "proto", 0, recA); err != nil || acked != len(recA) {
		t.Fatalf("first chunk: acked=%d err=%v", acked, err)
	}
	// A gap is rejected and stored state is unchanged.
	if _, err := tr.UploadChunk(srv.Addr(), "proto", len(recA)+10, recB); err == nil {
		t.Fatal("gap chunk accepted")
	}
	// The tail appends at the acknowledged offset.
	if acked, err := tr.UploadChunk(srv.Addr(), "proto", len(recA), recB); err != nil || acked != len(recA)+len(recB) {
		t.Fatalf("tail chunk: acked=%d err=%v", acked, err)
	}
	if recs := ds.Records("proto"); len(recs) != 2 {
		t.Fatalf("server parsed %d records, want 2", len(recs))
	}
	// Rewind to 0 (master reset): the stream restarts but the dataset
	// keeps the union.
	recC := core.EncodeRecord(core.Record{Kind: core.KindBoot, Time: 3, Boot: 1, Detected: core.DetectedFirstBoot, OSVersion: "9.0"})
	if acked, err := tr.UploadChunk(srv.Addr(), "proto", 0, recC); err != nil || acked != len(recC) {
		t.Fatalf("rewind chunk: acked=%d err=%v", acked, err)
	}
	if recs := ds.Records("proto"); len(recs) != 3 {
		t.Fatalf("post-reset merge lost records: %d, want 3", len(recs))
	}
	// Every acknowledged record is tracked.
	if keys := srv.AckedKeys("proto"); len(keys) != 3 {
		t.Fatalf("AckedKeys = %d, want 3", len(keys))
	}
}

// TestServerChunkRejectsCorruptPayload: a chunk whose checksum does not
// match is refused and leaves no trace.
func TestServerChunkRejectsCorruptPayload(t *testing.T) {
	srv, ds := newTestServer(t)
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "CHUNK corrupt 0 3 deadbeef\nabc")
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "ERR checksum") {
		t.Errorf("reply = %q", reply)
	}
	if _, ok := ds.Get("corrupt"); ok {
		t.Error("corrupt chunk stored")
	}
	if n, _, err := (NetTransport{}).Offset(srv.Addr(), "corrupt"); err != nil || n != 0 {
		t.Errorf("corrupt chunk advanced the stream to %d (err %v)", n, err)
	}
}
