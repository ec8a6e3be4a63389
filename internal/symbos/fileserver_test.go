package symbos

import (
	"testing"

	"symfail/internal/sim"
)

// mapStore is a minimal Store for tests.
type mapStore map[string][]byte

func (m mapStore) Write(path string, data []byte) bool {
	m[path] = append([]byte(nil), data...)
	return true
}
func (m mapStore) Append(path string, data []byte) bool {
	m[path] = append(m[path], data...)
	return true
}
func (m mapStore) View(path string) ([]byte, bool) {
	d, ok := m[path]
	return d, ok
}
func (m mapStore) Delete(path string)      { delete(m, path) }
func (m mapStore) Exists(path string) bool { _, ok := m[path]; return ok }
func (m mapStore) Size(path string) int    { return len(m[path]) }

func newFileServerFixture(t *testing.T) (*Kernel, *FileServer, *FileSession, mapStore) {
	t.Helper()
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.SetPanicHandler(func(*Panic, *Process) {})
	store := make(mapStore)
	fsrv := NewFileServer(k, store)
	client := k.StartProcess("Client", false)
	return k, fsrv, fsrv.Connect(client.Main()), store
}

func TestFileServerWriteReadRoundTrip(t *testing.T) {
	k, _, sess, store := newFileServerFixture(t)
	client := k.Process("Client")
	k.Exec(client.Main(), func() {
		if code := sess.WriteFile("logs/beats", []byte("alive")); code != KErrNone {
			t.Fatalf("write code = %s", ErrName(code))
		}
		data, code := sess.ReadFile("logs/beats")
		if code != KErrNone || string(data) != "alive" {
			t.Fatalf("read = %q, %s", data, ErrName(code))
		}
		if !sess.FileExists("logs/beats") {
			t.Error("FileExists false")
		}
	})
	if string(store["logs/beats"]) != "alive" {
		t.Errorf("store = %q", store["logs/beats"])
	}
}

func TestFileServerAppend(t *testing.T) {
	k, _, sess, _ := newFileServerFixture(t)
	client := k.Process("Client")
	k.Exec(client.Main(), func() {
		sess.AppendFile("log", []byte("a"))
		sess.AppendFile("log", []byte("b"))
		data, code := sess.ReadFile("log")
		if code != KErrNone || string(data) != "ab" {
			t.Fatalf("read = %q, %s", data, ErrName(code))
		}
	})
}

func TestFileServerBinaryPayload(t *testing.T) {
	k, _, sess, _ := newFileServerFixture(t)
	client := k.Process("Client")
	blob := []byte{0, 1, 2, 255, 0, 42}
	k.Exec(client.Main(), func() {
		// Contents containing NUL bytes must survive: the data travels
		// as the message body, apart from the path.
		if code := sess.WriteFile("bin", blob); code != KErrNone {
			t.Fatalf("write: %s", ErrName(code))
		}
		data, code := sess.ReadFile("bin")
		if code != KErrNone || string(data) != string(blob) {
			t.Fatalf("read = %v, %s", data, ErrName(code))
		}
	})
}

func TestFileServerMissingFile(t *testing.T) {
	k, _, sess, _ := newFileServerFixture(t)
	client := k.Process("Client")
	k.Exec(client.Main(), func() {
		if _, code := sess.ReadFile("nope"); code != KErrNotFound {
			t.Errorf("read missing = %s", ErrName(code))
		}
		if sess.FileExists("nope") {
			t.Error("FileExists true for missing file")
		}
		if code := sess.DeleteFile("nope"); code != KErrNone {
			t.Errorf("delete missing = %s (idempotent delete expected)", ErrName(code))
		}
	})
}

func TestFileServerDelete(t *testing.T) {
	k, _, sess, store := newFileServerFixture(t)
	client := k.Process("Client")
	k.Exec(client.Main(), func() {
		sess.WriteFile("f", []byte("x"))
		sess.DeleteFile("f")
		if sess.FileExists("f") {
			t.Error("file survived delete")
		}
	})
	if len(store) != 0 {
		t.Errorf("store = %v", store)
	}
}

func TestFileServerEmptyPathRejected(t *testing.T) {
	k, _, sess, _ := newFileServerFixture(t)
	client := k.Process("Client")
	k.Exec(client.Main(), func() {
		if code := sess.WriteFile("", []byte("x")); code != KErrArgument {
			t.Errorf("empty path write = %s", ErrName(code))
		}
	})
}

func TestFileServerUnknownOp(t *testing.T) {
	k, fsrv, _, _ := newFileServerFixture(t)
	client := k.Process("Client")
	raw := fsrv.Server().Connect(client.Main())
	k.Exec(client.Main(), func() {
		if code := raw.SendReceive(9999, ""); code != KErrNotSupported {
			t.Errorf("unknown op = %s", ErrName(code))
		}
	})
}

func TestFileServerIsCriticalServer(t *testing.T) {
	_, fsrv, _, _ := newFileServerFixture(t)
	if !fsrv.Server().Process().System() {
		t.Error("file server must be a critical system server")
	}
}

func TestFileServerPanicDisconnectsClients(t *testing.T) {
	k, fsrv, sess, _ := newFileServerFixture(t)
	client := k.Process("Client")
	// Kill the file server the hard way.
	k.TerminateProcess(fsrv.Server().Process())
	k.Exec(client.Main(), func() {
		if code := sess.WriteFile("f", []byte("x")); code != KErrDisconnected {
			t.Errorf("write to dead server = %s", ErrName(code))
		}
		if _, code := sess.ReadFile("f"); code != KErrDisconnected {
			t.Errorf("read from dead server = %s", ErrName(code))
		}
	})
}
