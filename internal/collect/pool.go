package collect

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Connection limits. connDeadline bounds each request/reply exchange, and
// each idle wait between two of them, at both ends of a connection. A
// pooled connection idle for maxIdleTime is closed before the server's
// deadline can hang up on it, and a pool keeps at most maxIdleConns.
const (
	connDeadline = 30 * time.Second
	dialTimeout  = 10 * time.Second
	maxIdleTime  = connDeadline / 2
	maxIdleConns = 64
)

// errPoolClosed is RoundTrip's error once its pool is closed.
var errPoolClosed = errors.New("collect: connection pool closed")

// defaultPool carries NetTransport and the package's client functions.
var defaultPool Pool

// dial is the collection tier's one place that opens a connection: a TCP
// dial to addr, with the connection's deadline timeout from now.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("collect: dial %s: %w", addr, err)
	}
	//symlint:allow determinism network I/O deadline on a real socket, not simulated time
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("collect: deadline: %w", err)
	}
	return conn, nil
}

// Pool keeps idle collection connections, keyed by address, for the next
// request to the same server. A connection goes back to the pool only
// after an OK reply with nothing behind it; any error, any ERR reply, and
// an OK that the server follows with an empty line (it hangs up after
// this reply) close it. A checkout drops idle connections that are too
// old or whose server has hung up since. The pool never retries: an
// exchange that fails on a reused connection returns the error a fresh
// connection's failure would, and the caller's own retry budget decides
// what happens next. The zero value is an empty, open pool.
type Pool struct {
	mu     sync.Mutex
	closed bool
	idle   []*pooledConn // oldest first
}

// pooledConn is one connection with its reply reader, which outlives any
// one exchange, and the request buffers each exchange reuses.
type pooledConn struct {
	net.Conn
	addr  string
	br    *bufio.Reader
	since time.Time // when it went idle
	head  []byte    // the request's header line, '\n' included
	req   [2][]byte // head and the body, as the one write sends them
	bufs  net.Buffers
}

// RoundTrip sends one request — the header line, then body — to addr over
// a pooled or freshly dialled connection, and returns the server's reply
// line without its line end. An ERR reply is returned as a reply, not as
// an error.
func (p *Pool) RoundTrip(addr, header string, body []byte) (string, error) {
	return p.roundTrip(addr, header, body, dialTimeout, connDeadline)
}

// roundTrip is RoundTrip with its own bounds: dialWithin on a dial, if one
// is needed, and exchangeWithin on the request and its reply.
func (p *Pool) roundTrip(addr, header string, body []byte, dialWithin, exchangeWithin time.Duration) (string, error) {
	c, err := p.get(addr, dialWithin)
	if err != nil {
		return "", err
	}
	c.head = append(append(c.head[:0], header...), '\n')
	return p.exchange(c, body, exchangeWithin)
}

// exchange sends the request whose header line the caller wrote into
// c.head, then body, and returns the reply line, within the given bound.
// It puts c back in the pool or closes it.
func (p *Pool) exchange(c *pooledConn, body []byte, within time.Duration) (string, error) {
	//symlint:allow determinism network I/O deadline on a real socket, not simulated time
	if err := c.SetDeadline(time.Now().Add(within)); err != nil {
		c.Close()
		return "", fmt.Errorf("collect: deadline: %w", err)
	}
	c.req = [2][]byte{c.head, body}
	c.bufs = c.req[:]
	if _, err := c.bufs.WriteTo(c.Conn); err != nil {
		c.Close()
		return "", fmt.Errorf("collect: send request: %w", err)
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.Close()
		return "", fmt.Errorf("collect: read reply: %w", err)
	}
	reply := strings.TrimSpace(line)
	if (reply == "OK" || strings.HasPrefix(reply, "OK ")) && c.br.Buffered() == 0 {
		p.put(c)
	} else {
		c.Close()
	}
	return reply, nil
}

// get checks out the newest clean idle connection to addr, or dials one
// within timeout.
func (p *Pool) get(addr string, timeout time.Duration) (*pooledConn, error) {
	for {
		c, err := p.take(addr)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		if c.clean() {
			return c, nil
		}
		c.Close()
	}
	conn, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &pooledConn{Conn: conn, addr: addr, br: bufio.NewReader(conn)}, nil
}

// take closes the idle connections past maxIdleTime, then removes and
// returns the newest idle one to addr (nil when there is none).
func (p *Pool) take(addr string) (*pooledConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errPoolClosed
	}
	//symlint:allow determinism idle age of a real socket, not simulated time
	for len(p.idle) > 0 && time.Since(p.idle[0].since) > maxIdleTime {
		p.evictLocked()
	}
	for i := len(p.idle) - 1; i >= 0; i-- {
		if c := p.idle[i]; c.addr == addr {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return c, nil
		}
	}
	return nil, nil
}

// put returns a connection to the pool, evicting the oldest idle one past
// maxIdleConns; on a closed pool it closes the connection instead.
func (p *Pool) put(c *pooledConn) {
	//symlint:allow determinism idle age of a real socket, not simulated time
	c.since = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	if len(p.idle) > maxIdleConns {
		p.evictLocked()
	}
}

// evictLocked closes and drops the oldest idle connection.
func (p *Pool) evictLocked() {
	p.idle[0].Close()
	p.idle = append(p.idle[:0], p.idle[1:]...)
}

// Close closes every idle connection, and each checked-out one as it comes
// back; RoundTrip fails from now on.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for len(p.idle) > 0 {
		p.evictLocked()
	}
}

// clean reports whether an idle connection can carry the next request: no
// byte is waiting on it and its peer has not hung up. A read with an
// expired deadline fails before it reaches the socket, so the check peeks
// at the socket directly, without blocking.
func (c *pooledConn) clean() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	sc, ok := c.Conn.(syscall.Conn)
	if !ok {
		return true
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	var peekErr error
	var b [1]byte
	if err := raw.Read(func(fd uintptr) bool {
		_, _, peekErr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}); err != nil {
		return false
	}
	// Nothing to read yet is the one clean answer: a byte is an unasked
	// reply, and a zero-length read is the peer's hang-up.
	return peekErr == syscall.EAGAIN
}
