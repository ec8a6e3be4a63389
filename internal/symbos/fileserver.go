package symbos

// The file server (F32). On Symbian every file operation is a
// client/server request to the file server process; the paper's logger
// persists its heartbeat and Log File through it. Modelling it as a real
// server matters for fidelity: file I/O exercises the IPC machinery, and a
// file-server panic is a critical-server failure (the phone reboots).

// File server operation codes.
const (
	FsOpWrite = iota + 100
	FsOpAppend
	FsOpRead
	FsOpDelete
	FsOpExists
	FsOpSize
)

// Store is the backing medium the file server manages (the phone package's
// flash filesystem implements it). Write and Append report false when the
// medium rejects the operation — a full flash — which the file server
// surfaces as KErrDiskFull. View returns the stored bytes themselves, not
// a copy: they stay valid until path is next written or deleted, and the
// caller must not modify them. Write and Append must accept data that
// aliases a view of the same file (a repair writes back a prefix or a
// suffix of what it read).
type Store interface {
	Write(path string, data []byte) bool
	Append(path string, data []byte) bool
	View(path string) ([]byte, bool)
	Delete(path string)
	Exists(path string) bool
	Size(path string) int
}

// FileServer is the F32 file server process.
type FileServer struct {
	srv   *Server
	store Store
}

// NewFileServer starts the file server as a critical system server over the
// given store.
func NewFileServer(k *Kernel, store Store) *FileServer {
	f := &FileServer{store: store}
	f.srv = NewServer(k, "F32Srv", true, f.handle)
	return f
}

// Server returns the underlying server (for process-level access).
func (f *FileServer) Server() *Server { return f.srv }

// handle serves one file request. The name argument is the path; writes
// carry their data as the body, reads reply with a view of the file's
// bytes (valid, like every reply, until the client's next request), and a
// size query completes with the size itself.
func (f *FileServer) handle(m *Message) {
	switch m.Op {
	case FsOpWrite, FsOpAppend:
		if m.Payload == "" {
			m.Complete(KErrArgument)
			return
		}
		var stored bool
		if m.Op == FsOpWrite {
			stored = f.store.Write(m.Payload, m.Body)
		} else {
			stored = f.store.Append(m.Payload, m.Body)
		}
		if !stored {
			m.Complete(KErrDiskFull)
			return
		}
		m.Complete(KErrNone)
	case FsOpRead:
		data, ok := f.store.View(m.Payload)
		if !ok {
			m.Complete(KErrNotFound)
			return
		}
		m.Respond(data)
		m.Complete(KErrNone)
	case FsOpDelete:
		f.store.Delete(m.Payload)
		m.Complete(KErrNone)
	case FsOpExists:
		if f.store.Exists(m.Payload) {
			m.Complete(KErrNone)
		} else {
			m.Complete(KErrNotFound)
		}
	case FsOpSize:
		if !f.store.Exists(m.Payload) {
			m.Complete(KErrNotFound)
			return
		}
		m.Complete(f.store.Size(m.Payload))
	default:
		m.Complete(KErrNotSupported)
	}
}

// FileSession is a client connection to the file server (RFs).
type FileSession struct {
	sess *Session
}

// Connect opens a file-server session from the client thread
// (RFs::Connect).
func (f *FileServer) Connect(t *Thread) *FileSession {
	return &FileSession{sess: f.srv.Connect(t)}
}

// WriteFile replaces path's contents. The store copies data, so the
// caller may reuse it at once.
func (s *FileSession) WriteFile(path string, data []byte) int {
	_, code := s.sess.call("SendReceive", FsOpWrite, path, data)
	return code
}

// AppendFile adds data to the end of path.
func (s *FileSession) AppendFile(path string, data []byte) int {
	_, code := s.sess.call("SendReceive", FsOpAppend, path, data)
	return code
}

// ReadFile returns path's contents (KErrNotFound when absent). Like every
// reply they are valid until the session's next request and must not be
// modified: they are a view of the flash, not a copy. They may be passed
// as the body of that next request (a repair writes back a prefix or a
// suffix of what it read); a caller that keeps them copies them.
func (s *FileSession) ReadFile(path string) ([]byte, int) {
	data, code := s.sess.Query(FsOpRead, path)
	if code != KErrNone {
		return nil, code
	}
	return data, KErrNone
}

// SizeFile returns path's length in bytes without transferring its
// contents (KErrNotFound when absent). Size-gated appenders — the
// heartbeat and Log File writers check a rotation budget on every
// append — must use this instead of ReadFile, which copies the file.
func (s *FileSession) SizeFile(path string) (int, int) {
	n := s.sess.SendReceive(FsOpSize, path)
	if n < 0 {
		return 0, n
	}
	return n, KErrNone
}

// DeleteFile removes path.
func (s *FileSession) DeleteFile(path string) int {
	return s.sess.SendReceive(FsOpDelete, path)
}

// FileExists reports whether path is present.
func (s *FileSession) FileExists(path string) bool {
	return s.sess.SendReceive(FsOpExists, path) == KErrNone
}

// Close releases the session.
func (s *FileSession) Close() { s.sess.Close() }
