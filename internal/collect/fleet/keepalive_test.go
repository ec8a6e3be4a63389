package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"symfail/internal/collect"
)

// shardHandlers counts the goroutines serving a collection server
// connection, in any process-wide server.
func shardHandlers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "collect.(*Server).handle(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestKeepAliveFleetCloseWithIdleConns: closing a replicated fleet with
// pooled idle connections open — client to router, router to shard, owner
// to replica — returns at once instead of waiting out their deadlines.
func TestKeepAliveFleetCloseWithIdleConns(t *testing.T) {
	f, err := New(Config{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		uploadRetry(t, f.Addr(), fmt.Sprintf("phone-%02d", i+1), fleetTestLog(int64(i+1)))
	}
	start := time.Now()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("fleet Close took %v with idle pooled connections open", took)
	}
}

// TestKeepAliveRouterRoutesEachRequest: one client connection carries
// CHUNKs for devices owned by different shards, and the router routes each
// request, not the connection, so every chunk lands on its own owner. Once
// the router is killed, no shard goroutine is left serving its pooled
// upstream connections.
func TestKeepAliveRouterRoutesEachRequest(t *testing.T) {
	baseline := shardHandlers()
	names := []string{"shard-01", "shard-02", "shard-03"}
	addrs := map[string]string{}
	sets := map[string]*collect.Dataset{}
	for _, name := range names {
		ds := collect.NewDataset()
		srv, err := collect.NewServer("127.0.0.1:0", ds)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[name], sets[name] = srv.Addr(), ds
	}
	rt, err := newRouter("127.0.0.1:0", routerHooks{route: func(dev string) (string, bool) {
		owner, ok := Owner(dev, names)
		return addrs[owner], ok
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Pick devices until every shard owns two.
	owned := map[string]int{}
	var devs []string
	for i := 0; len(devs) < 2*len(names); i++ {
		dev := fmt.Sprintf("phone-%03d", i)
		if owner, _ := Owner(dev, names); owned[owner] < 2 {
			owned[owner]++
			devs = append(devs, dev)
		}
	}
	conn, err := net.Dial("tcp", rt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i, dev := range devs {
		data := fleetTestLog(int64(i + 1))
		fmt.Fprintf(conn, "CHUNK %s 0 %d %08x\n%s", dev, len(data), crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)), data)
		reply, err := br.ReadString('\n')
		if err != nil || reply != fmt.Sprintf("OK %d\n", len(data)) {
			t.Fatalf("request %d (%s) on the shared connection: reply %q, %v", i, dev, reply, err)
		}
	}
	for i, dev := range devs {
		owner, _ := Owner(dev, names)
		for _, name := range names {
			got, ok := sets[name].Get(dev)
			if want := name == owner; ok != want || (ok && !bytes.Equal(got, fleetTestLog(int64(i+1)))) {
				t.Errorf("%s on %s: held %v, want %v (owner %s)", dev, name, ok, want, owner)
			}
		}
	}

	if shardHandlers() <= baseline {
		t.Fatal("no shard goroutine serves the router's pooled connections")
	}
	rt.kill()
	for deadline := time.Now().Add(5 * time.Second); shardHandlers() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d shard goroutines still serve the killed router's connections", shardHandlers()-baseline)
		}
	}
}

// TestBeatRoundsOneConnectionPerShard: beat rounds against a healthy fleet
// ride pooled connections, so however many rounds run, each shard serves
// one beat connection.
func TestBeatRoundsOneConnectionPerShard(t *testing.T) {
	f := replicaFleet(t, 0)
	f.mu.Lock()
	probes := f.liveLocked()
	f.mu.Unlock()
	baseline := shardHandlers()
	for round := 0; round < 5; round++ {
		f.runBeat(probes)
	}
	if got := shardHandlers() - baseline; got != len(probes) {
		t.Fatalf("5 beat rounds left %d shard connections open, want one per shard (%d)", got, len(probes))
	}
	if s := f.Suspicions(); s != 0 {
		t.Fatalf("a healthy fleet raised %d suspicions", s)
	}
}

// TestReplicateLegsOverlap: write-time replication offers a chunk to every
// replica at once. Each fake replica holds its reply until both have a
// request, so legs run one after the other would stall the first until
// its bounded wait runs out and count it failed.
func TestReplicateLegsOverlap(t *testing.T) {
	const hold = 3 * time.Second
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	var targets []target
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		targets = append(targets, target{name: fmt.Sprintf("replica-%d", i), addr: ln.Addr().String()})
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// HANDOFF <dev> chunk <len> <crc> <off> <crc>, then the chunk.
			br := bufio.NewReader(conn)
			header, _ := br.ReadString('\n')
			fields := strings.Fields(header)
			n := 0
			if len(fields) > 4 {
				n, _ = strconv.Atoi(fields[3])
			}
			_, _ = io.ReadFull(br, make([]byte, n))
			arrived.Done()
			select {
			case <-both:
				fmt.Fprint(conn, "OK\n")
			case <-time.After(hold):
				fmt.Fprint(conn, "ERR the other replica got no request\n")
			}
		}()
	}
	f := &Supervisor{}
	stream := fleetTestLog(1, 2, 3)
	if got := f.replicate("phone-01", collect.HandoffChunk, stream, 0, targets, 0, 1); got != 2 {
		t.Fatalf("%d of 2 replicas accepted: the legs did not overlap", got)
	}
	if f.handoffs != 2 || f.handoffFails != 0 {
		t.Fatalf("handoffs %d, failures %d, want 2 and 0", f.handoffs, f.handoffFails)
	}
}
