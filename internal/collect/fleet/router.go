// Package fleet lifts the crash-safe collection tier to a sharded
// multi-server ingest fleet: N independent collect.Server instances (each
// with its own WAL and CrashStore, each under its own collect.Supervisor)
// behind a deterministic device-hash Router, with server-to-server record
// handoff when a shard dies and live rebalancing when shards join or leave
// mid-study. The fleet Supervisor extends the single-server kill-anything
// model to killing any RNG-drawn subset of the fleet — router included —
// while preserving PR 4's invariant verbatim: every record any incarnation
// of any shard ever acknowledged appears exactly once in the merged
// dataset, whatever dies. See DESIGN.md §13.
package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"symfail/internal/collect"
)

// Owner picks the owning member for a device by rendezvous (highest random
// weight) hashing: every observer with the same member list agrees on the
// owner without any coordination, and membership changes only move the
// devices whose highest-scoring member actually changed — a join steals
// ~1/N of the devices, a leave redistributes only the leaver's. Returns
// false when members is empty.
func Owner(deviceID string, members []string) (string, bool) {
	best, ok := "", false
	var bestScore uint64
	for _, m := range members {
		s := rendezvousScore(deviceID, m)
		// Ties break toward the lexically smaller member name so the choice
		// stays a pure function of (device, member set).
		if !ok || s > bestScore || (s == bestScore && m < best) {
			best, bestScore, ok = m, s, true
		}
	}
	return best, ok
}

// rendezvousScore is FNV-1a over device then member, with a separator so
// distinct (device, member) pairs cannot collide by concatenation. The
// device goes first deliberately: hashed the other way round, the member
// names' single differing digit feeds the state before a long identical
// device suffix, and FNV's weak per-byte diffusion then yields the same
// winner for every device — one shard owns the whole fleet. Device-first,
// the differing member bytes are the last mixed in and the scores spread.
func rendezvousScore(deviceID, member string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, deviceID)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, member)
	return h.Sum64()
}

// Router is the fleet's front door: an L7 proxy that reads one request at
// a time off a client connection, forwards it to the shard owning its
// device, and writes the shard's reply back. Each request is routed on its
// own, so one client connection carries requests for devices on different
// shards; the router keeps it after every OK reply and closes it after an
// ERR, as a server does. Shard connections come from the router's own
// collect.Pool. Uploaders keep talking to one pinned address whatever the
// fleet does behind it; when routing moves a device between shards the
// uploader renegotiates through the existing OFFSET protocol (a gap error
// makes it resync), so no client-side changes are needed.
//
// The router is itself a kill target: killing it drops the listener, every
// client connection without replies — clients see dead connections and
// retry — and its pool of shard connections, and the fleet rebinds a fresh
// router on the same address.
type Router struct {
	listener net.Listener
	hooks    routerHooks
	pool     collect.Pool

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// routerHooks are the fleet callbacks a router incarnation is built around.
// route and begin are mandatory for a fleet router; the rest are nil on the
// replication-free (R=1) fleet, which keeps that path byte-identical to the
// pre-quorum router.
type routerHooks struct {
	// route resolves a device to the owning shard's address under the
	// fleet's current epoch; begin is the fleet's per-request hook and
	// reports whether the router itself was selected to die on this request.
	route func(deviceID string) (string, bool)
	begin func() bool
	// gate, when set, may refuse a write verb before any shard is touched —
	// the fleet's below-quorum rejection. The returned error text goes to
	// the client as a retryable ERR.
	gate func(verb string) error
	// blocked, when set, simulates a network partition between this router
	// and a shard: a true return means the forward attempt fails without a
	// dial ever happening (the shard itself stays healthy and reachable
	// from its peers).
	blocked func(addr string) bool
	// observe, when set, feeds the fleet's failure detector: every forward
	// attempt's outcome against a shard address, success or miss.
	observe func(addr string, ok bool)
}

// routedVerb reports whether v is a client header the router understands;
// each carries the device ID as its second field. HANDOFF is not one: it
// goes shard to shard, never through the router.
func routedVerb(v string) bool {
	switch v {
	case "CHUNK", "OFFSET", "FIN":
		return true
	}
	return false
}

// newRouter starts a router on addr ("127.0.0.1:0" picks a free port).
func newRouter(addr string, hooks routerHooks) (*Router, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: router listen: %w", err)
	}
	rt := &Router{listener: l, hooks: hooks, conns: make(map[net.Conn]struct{})}
	rt.wg.Add(1)
	go rt.acceptLoop()
	return rt, nil
}

// Addr returns the router's listen address.
func (rt *Router) Addr() string { return rt.listener.Addr().String() }

func (rt *Router) acceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !rt.track(conn) {
			_ = conn.Close()
			return
		}
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.handle(conn)
		}()
	}
}

// track registers a client connection for kill-time teardown; false once
// killed.
func (rt *Router) track(conn net.Conn) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return false
	}
	rt.conns[conn] = struct{}{}
	return true
}

func (rt *Router) forget(conn net.Conn) {
	rt.mu.Lock()
	delete(rt.conns, conn)
	rt.mu.Unlock()
}

func (rt *Router) killed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.closed
}

// handle serves one client connection's requests in turn, each under its
// own deadline, until a reply other than OK or a dead write ends it.
func (rt *Router) handle(conn net.Conn) {
	defer rt.forget(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		//symlint:allow determinism network I/O deadline on a real socket, not simulated time
		if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return
		}
		reply := rt.serve(br)
		if reply == "" {
			return
		}
		if _, err := conn.Write([]byte(reply + "\n")); err != nil || !strings.HasPrefix(reply, "OK") {
			return
		}
	}
}

// serve reads one request and returns the reply line for it, "" when the
// router died on it and the connection dies unanswered.
func (rt *Router) serve(br *bufio.Reader) string {
	header, err := readLine(br, collect.MaxHeaderBytes)
	if err != nil {
		return fmt.Sprintf("ERR %v", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 2 || !routedVerb(fields[0]) {
		return "ERR bad header"
	}
	if rt.hooks.begin != nil && rt.hooks.begin() {
		// The router was drawn into this request's kill subset: the fleet
		// has already torn this router down and rebound a fresh one; this
		// connection dies without a reply, like any crashed process.
		return ""
	}
	// Buffer the declared body before touching a shard: with header and
	// body in hand the router can replay the request against the shard's
	// replacement when a kill lands mid-request, making a shard crash as
	// invisible to the client as the protocol allows. Every verb is
	// idempotent on the shard (merges are canonical, chunk appends are
	// positional), so a replay after a post-commit crash is harmless.
	n := 0
	if fields[0] == "CHUNK" && len(fields) == 5 {
		n, _ = strconv.Atoi(fields[3])
	}
	if n < 0 || n > collect.MaxUploadBytes {
		return "ERR bad size"
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return fmt.Sprintf("ERR short body: %v", err)
	}
	// The below-quorum gate runs after the body is buffered: the client has
	// finished writing and is reading for a reply, so the retryable ERR
	// actually reaches it instead of racing a mid-body connection reset.
	if rt.hooks.gate != nil {
		if err := rt.hooks.gate(fields[0]); err != nil {
			return fmt.Sprintf("ERR %v", err)
		}
	}
	reply, ok := rt.forward(fields[1], header, body)
	if !ok {
		return "ERR shard unavailable"
	}
	return reply
}

// forward delivers one buffered request to the device's shard and returns
// the reply line, riding out shard crashes: a dead upstream connection or
// a refused dial means the shard is mid-restart (recovery plus crash
// handoff can span hundreds of host milliseconds), so the router re-routes
// — a leave may have moved the device — and replays, on a fresh connection
// unless the pool holds a clean one. A reply counts only when its line is
// whole; a truncated one (the shard died while replying) is retried like
// any other failure.
func (rt *Router) forward(dev, header string, body []byte) (string, bool) {
	for attempt := 0; attempt < 250; attempt++ {
		if attempt > 0 {
			// Host-time pause while a real shard rebinds; the simulation
			// never observes it.
			//symlint:allow determinism host-time pause while a real TCP shard rebinds
			time.Sleep(5 * time.Millisecond)
		}
		addr, ok := rt.hooks.route(dev)
		if !ok {
			return "", false
		}
		if rt.hooks.blocked != nil && rt.hooks.blocked(addr) {
			// Partitioned: the shard may be perfectly healthy, but this
			// router cannot reach it. The miss feeds the failure detector,
			// which will suspect the shard and re-route the next attempt.
			rt.observe(addr, false)
			continue
		}
		reply, err := rt.pool.RoundTrip(addr, header, body)
		if err == nil {
			rt.observe(addr, true)
			return reply, true
		}
		if rt.killed() {
			return "", false // the router itself was killed mid-request
		}
		rt.observe(addr, false)
	}
	return "", false
}

// observe forwards a per-attempt outcome to the fleet's failure detector —
// probe-on-traffic, so suspicion can land inside a single forward loop
// instead of waiting for the next heartbeat round.
func (rt *Router) observe(addr string, ok bool) {
	if rt.hooks.observe != nil {
		rt.hooks.observe(addr, ok)
	}
}

// readLine mirrors the server's bounded header read.
func readLine(r *bufio.Reader, max int) (string, error) {
	var line []byte
	for len(line) < max {
		c, err := r.ReadByte()
		if err != nil {
			return "", fmt.Errorf("short header: %v", err)
		}
		if c == '\n' {
			return string(line), nil
		}
		line = append(line, c)
	}
	return "", errors.New("header too long")
}

// kill tears the router down the way a crash would: listener, every client
// connection and the shard connection pool closed, no replies, no
// draining. Safe to call from one of the router's own handler goroutines
// (it does not wait for them).
func (rt *Router) kill() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	conns := make([]net.Conn, 0, len(rt.conns))
	for c := range rt.conns {
		//symlint:allow maporder closing a set of sockets is order-independent and the set itself is host-scheduling state
		conns = append(conns, c)
	}
	rt.conns = make(map[net.Conn]struct{})
	rt.mu.Unlock()
	_ = rt.listener.Close()
	rt.pool.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close shuts the router down and waits for in-flight handlers.
func (rt *Router) Close() error {
	rt.kill()
	rt.wg.Wait()
	return nil
}

// sortedKeys returns m's keys in sorted order (deterministic iteration).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
