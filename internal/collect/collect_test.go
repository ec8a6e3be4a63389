package collect

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"symfail/internal/core"
)

func newTestServer(t *testing.T) (*Server, *Dataset) {
	t.Helper()
	ds := NewDataset()
	s, err := NewServer("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, ds
}

// uploadLog sends a device's whole log the way the study-end collection
// does: one CHUNK at offset 0, acknowledged with the log's length.
func uploadLog(addr, id string, data []byte) error {
	n, err := NetTransport{}.UploadChunk(addr, id, 0, data)
	if err == nil && n != len(data) {
		err = fmt.Errorf("acked %d of %d bytes", n, len(data))
	}
	return err
}

func TestUploadRoundTrip(t *testing.T) {
	s, ds := newTestServer(t)
	payload := []byte("{\"kind\":\"boot\",\"time\":1}\n")
	if err := uploadLog(s.Addr(), "phone-01", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := ds.Get("phone-01")
	if !ok || string(got) != string(payload) {
		t.Fatalf("dataset = %q ok=%v", got, ok)
	}
	if s.Uploads() != 1 {
		t.Errorf("Uploads = %d", s.Uploads())
	}
}

func TestUploadMergesAcrossMasterReset(t *testing.T) {
	s, ds := newTestServer(t)
	recA := core.EncodeRecord(core.Record{Kind: core.KindBoot, Time: 1, Boot: 1, Detected: core.DetectedFirstBoot})
	recB := core.EncodeRecord(core.Record{Kind: core.KindPanic, Time: 2, Category: "USER", PType: 11})
	recC := core.EncodeRecord(core.Record{Kind: core.KindBoot, Time: 3, Boot: 1, Detected: core.DetectedFirstBoot, OSVersion: "8.0"})
	// First upload: records A and B.
	if err := uploadLog(s.Addr(), "p", append(append([]byte(nil), recA...), recB...)); err != nil {
		t.Fatal(err)
	}
	// The phone is master-reset; it re-uploads a fresh log holding only C.
	if err := uploadLog(s.Addr(), "p", recC); err != nil {
		t.Fatal(err)
	}
	recs := ds.Records("p")
	if len(recs) != 3 {
		t.Fatalf("merged records = %d, want 3 (pre-reset history preserved)", len(recs))
	}
	// Time-ordered.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Errorf("merged records out of order at %d", i)
		}
	}
	// Re-uploading the same log is idempotent.
	if err := uploadLog(s.Addr(), "p", recC); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Records("p")); got != 3 {
		t.Errorf("idempotent re-upload changed count to %d", got)
	}
}

func TestUploadEmptyBody(t *testing.T) {
	s, ds := newTestServer(t)
	if err := uploadLog(s.Addr(), "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := ds.Get("empty")
	if !ok || len(got) != 0 {
		t.Errorf("got %q ok=%v", got, ok)
	}
}

func TestUploadInvalidDeviceID(t *testing.T) {
	s, _ := newTestServer(t)
	for _, id := range []string{"", "has space", "has\nnewline"} {
		if err := uploadLog(s.Addr(), id, []byte("x")); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func TestUploadTooLargeRejectedClientSide(t *testing.T) {
	if err := uploadLog("127.0.0.1:1", "p", make([]byte, MaxUploadBytes+1)); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestServerRejectsBadHeader(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []string{
		"NOPE p 3 00000000\n",
		"UPLOAD p 3 00000000\n", // the retired whole-file verb
		"CHUNK p\n",
		"CHUNK p 0 3\n", // missing checksum
		"CHUNK p 0 notanumber 00000000\n",
		"CHUNK p 0 -5 00000000\n",
		"CHUNK p 0 3 nothex\n",
		fmt.Sprintf("CHUNK p 0 %d 00000000\n", MaxUploadBytes+1),
	}
	for _, h := range cases {
		conn, err := net.DialTimeout("tcp", s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(conn, h)
		reply, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil {
			t.Fatalf("header %q: no reply: %v", h, err)
		}
		if !strings.HasPrefix(reply, "ERR") {
			t.Errorf("header %q accepted: %q", h, reply)
		}
		if strings.HasPrefix(h, "UPLOAD") && reply != "ERR bad header\n" {
			t.Errorf("header %q: reply %q, want ERR bad header", h, reply)
		}
	}
}

func TestConcurrentUploads(t *testing.T) {
	s, ds := newTestServer(t)
	const n = 20
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("phone-%02d", i)
			errs[i] = uploadLog(s.Addr(), id, []byte(id+" log"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if got := len(ds.Devices()); got != n {
		t.Errorf("devices = %d, want %d", got, n)
	}
	ids := ds.Devices()
	if !sortedStrings(ids) {
		t.Errorf("Devices not sorted: %v", ids)
	}
}

func TestDatasetRecordsParsing(t *testing.T) {
	ds := NewDataset()
	var buf []byte
	buf = append(buf, core.EncodeRecord(core.Record{Kind: core.KindBoot, Time: 5, Boot: 1, Detected: core.DetectedFirstBoot})...)
	buf = append(buf, core.EncodeRecord(core.Record{Kind: core.KindPanic, Time: 9, Category: "USER", PType: 11})...)
	ds.Put("p1", buf)
	recs := ds.Records("p1")
	if len(recs) != 2 || recs[1].PanicKey() != "USER 11" {
		t.Fatalf("records = %+v", recs)
	}
	if ds.Records("missing") != nil {
		t.Error("missing device should parse to nil")
	}
	all := ds.AllRecords()
	if len(all) != 1 || len(all["p1"]) != 2 {
		t.Errorf("AllRecords = %v", all)
	}
}

func TestDatasetCopiesData(t *testing.T) {
	ds := NewDataset()
	orig := []byte("abc")
	ds.Put("p", orig)
	orig[0] = 'X'
	got, _ := ds.Get("p")
	if string(got) != "abc" {
		t.Error("Put did not copy")
	}
	got[0] = 'Y'
	again, _ := ds.Get("p")
	if string(again) != "abc" {
		t.Error("Get did not copy")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	ds := NewDataset()
	s, err := NewServer("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := uploadLog(s.Addr(), "p", []byte("x")); err == nil {
		t.Error("upload to closed server succeeded")
	}
}

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

func TestServerRejectsChecksumMismatch(t *testing.T) {
	s, ds := newTestServer(t)
	conn, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "CHUNK p 0 3 deadbeef\nabc")
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "ERR checksum") {
		t.Errorf("reply = %q", reply)
	}
	if _, ok := ds.Get("p"); ok {
		t.Error("corrupt upload stored")
	}
}
