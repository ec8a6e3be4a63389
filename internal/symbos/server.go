package symbos

import "fmt"

// Handler processes one client message inside the server's thread context.
type Handler func(*Message)

// Server is a Symbian system-server application: all system services are
// provided by server processes, and clients reach them through kernel
// message passing (section 2). A server created with system=true is a
// critical server — the paper observes that panics in such servers reboot
// the phone.
type Server struct {
	name    string
	proc    *Process
	handler Handler
	served  uint64

	// The synchronous path's scratch Message, readied at the first
	// Connect. Synchronous requests are the hottest IPC path in the
	// simulator and clients may connect once per request, so it lives
	// here rather than in each Session. busy falls a nested (re-entrant)
	// request back to a fresh Message, and every handler replies before
	// returning (the boundary recovers server panics), so the scratch
	// never outlives a call.
	scratch Message
	busy    bool
}

// NewServer starts a server process with the given message handler.
func NewServer(k *Kernel, name string, system bool, handler Handler) *Server {
	proc := k.StartProcess(name, system)
	return &Server{name: name, proc: proc, handler: handler}
}

// AdoptServer wraps an existing process as a server (used when an
// application exposes a service from its own process).
func AdoptServer(proc *Process, handler Handler) *Server {
	return &Server{name: proc.name, proc: proc, handler: handler}
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Process returns the server's process.
func (s *Server) Process() *Process { return s.proc }

// Served returns the number of messages processed.
func (s *Server) Served() uint64 { return s.served }

// Message is one client/server request (RMessage). Like an RMessage it
// carries a name argument (Payload: a path, a phone number) and a byte
// body (Body: the TDesC8 a write sends) as separate arguments, so file
// data crosses the IPC boundary as bytes, never packed into the name.
// Complete answers it; a null RMessagePtr raises USER 70, as does
// answering twice. A non-negative completion code can itself be the
// answer, as Symbian servers return sizes and counts.
type Message struct {
	Op      int
	Payload string
	Body    []byte
	// Response is the reply descriptor, set by Respond before Complete.
	// It is valid until the client's next request: a handler may reply
	// from scratch it reuses (a device's firmware servers share one), so
	// a caller that keeps a reply copies it. It may be passed as the body
	// of that next request, which reads its body before replying.
	Response []byte

	server    *Server
	kernel    *Kernel
	replied   bool
	nullPtr   bool
	replyCode int           // completion code, read back by the sender
	replyAO   *ActiveObject // async requests complete this on reply
}

// NullifyPtr corrupts the message's RMessagePtr (a modelled defect): the
// next Complete raises USER 70.
func (m *Message) NullifyPtr() { m.nullPtr = true }

// Respond sets the reply written back into the client's descriptor when
// the request completes; b must stay unchanged until the client's next
// request (see Response).
func (m *Message) Respond(b []byte) { m.Response = b }

// Complete answers the request with the given code.
func (m *Message) Complete(code int) {
	if m.nullPtr {
		m.kernel.Raise(CatUser, TypeNullMessageHandle,
			"completing a client/server request through a null RMessagePtr")
	}
	if m.replied {
		m.kernel.Raise(CatUser, TypeNullMessageHandle,
			fmt.Sprintf("message op %d completed twice", m.Op))
	}
	m.replied = true
	m.server.served++
	m.replyCode = code
	if m.replyAO != nil {
		m.replyAO.Complete(code)
	}
}

// Session is a client connection to a server, held in the client process's
// object index like any other kernel object (obj is that entry).
type Session struct {
	server *Server
	client *Thread
	handle Handle
	open   bool
	obj    KObject
}

// Connect opens a session from the client thread to the server
// (RSessionBase::CreateSession).
func (s *Server) Connect(client *Thread) *Session {
	if s.scratch.server == nil {
		s.scratch.server, s.scratch.kernel = s, s.proc.kernel
	}
	sess := &Session{server: s, client: client, open: true,
		obj: KObject{name: s.name, kind: "session", refs: 1, open: true}}
	sess.handle = client.proc.index(&sess.obj)
	return sess
}

// acquire readies a Message for one request — the server's scratch when
// free, a fresh allocation when a handler re-entered the server.
func (s *Server) acquire(k *Kernel, op int, payload string, body []byte) *Message {
	if s.busy {
		return &Message{Op: op, Payload: payload, Body: body,
			server: s, kernel: k, replyCode: KErrDisconnected}
	}
	s.busy = true
	// Only the fields a request sets: every pointer written while the
	// collector marks runs a write barrier. Connect set server and kernel
	// once, release cleared Response, and no async request uses the
	// scratch, so replyAO stays nil.
	m := &s.scratch
	m.Op, m.Payload, m.Body = op, payload, body
	m.replied, m.nullPtr = false, false
	m.replyCode = KErrDisconnected // a panicking server never replies
	return m
}

func (s *Server) release(m *Message) {
	if m == &s.scratch {
		s.busy = false
		// Pin neither the caller's body nor a reply it has taken.
		m.Body, m.Response = nil, nil
	}
}

// dispatch runs the handler on m in the server's thread context.
func (s *Server) dispatch(k *Kernel, m *Message) { k.serve(&s.proc.main, s.handler, m) }

// Handle returns the session's raw handle in the client's object index.
func (sess *Session) Handle() Handle { return sess.handle }

// Connected reports whether the session is usable.
func (sess *Session) Connected() bool {
	return sess.open && sess.server.proc.alive
}

// SendReceive issues a synchronous request (RSessionBase::SendReceive).
// The handler runs in the server's thread context; if the server panics
// before replying, the client sees KErrDisconnected — this is how a panic
// in one process propagates an error (not a panic) into another.
func (sess *Session) SendReceive(op int, payload string) int {
	_, code := sess.call("SendReceive", op, payload, nil)
	return code
}

// Query is SendReceive for requests that carry a reply: it returns the
// server's Response (valid until the client's next request) alongside the
// completion code.
func (sess *Session) Query(op int, payload string) ([]byte, int) {
	return sess.call("Query", op, payload, nil)
}

// call is the one synchronous request path: a name argument, a byte body
// (nil for most requests), and the reply with its completion code. verb
// names the client call in the closed-session panic.
func (sess *Session) call(verb string, op int, payload string, body []byte) ([]byte, int) {
	k := sess.server.proc.kernel
	if !sess.open {
		k.Raise(CatKernExec, TypeBadHandle,
			fmt.Sprintf("%s on closed session to %q", verb, sess.server.name))
	}
	if !sess.server.proc.alive {
		return nil, KErrDisconnected
	}
	srv := sess.server
	m := srv.acquire(k, op, payload, body)
	srv.dispatch(k, m)
	resp, code := m.Response, m.replyCode
	srv.release(m)
	return resp, code
}

// SendAsync issues an asynchronous request whose reply completes ao. The
// server handler runs on the next engine tick, modelling the kernel's
// message queueing.
func (sess *Session) SendAsync(op int, payload string, ao *ActiveObject) {
	k := sess.server.proc.kernel
	if !sess.open {
		k.Raise(CatKernExec, TypeBadHandle,
			fmt.Sprintf("SendAsync on closed session to %q", sess.server.name))
	}
	ao.SetActive()
	// Async requests outlive this call, so the message cannot come from
	// the server's scratch.
	m := &Message{
		Op:      op,
		Payload: payload,
		server:  sess.server,
		kernel:  k,
		replyAO: ao,
	}
	k.eng.After(0, func() {
		if !sess.server.proc.alive {
			ao.Complete(KErrDisconnected)
			return
		}
		sess.server.dispatch(k, m)
		if !m.replied {
			// The server panicked mid-request; fail the client request.
			ao.Complete(KErrDisconnected)
		}
	})
}

// Close releases the session (RHandleBase::Close), going through the
// Kernel Server handle path so a corrupted handle raises KERN-SVR 0.
func (sess *Session) Close() {
	if !sess.open {
		return
	}
	sess.open = false
	sess.client.proc.CloseHandle(sess.handle)
}

// CorruptSessionHandle replaces the session's handle with one that does not
// resolve (a modelled defect): the next Close raises KERN-SVR 0.
func (sess *Session) CorruptSessionHandle() {
	sess.handle = sess.client.proc.CorruptHandle()
}
