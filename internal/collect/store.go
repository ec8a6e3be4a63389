package collect

import (
	"sort"
	"sync"

	"symfail/internal/sim"
)

// CrashStore is the crash-faithful medium backing the collection server's
// durable state (its write-ahead log and snapshot). It mirrors the phone's
// flash model (phone.FS with FlashFaults): bytes written are divided into a
// synced region that survives a crash and an un-synced tail that does not —
// a kill keeps only a strict prefix of the tail (the torn write), drawn
// from the supervisor's RNG so every loss is a deterministic function of
// the seed. Nothing here touches the real filesystem; the point is to make
// the durability protocol (WAL append + Sync before the ACK hits the wire)
// falsifiable under injected crashes, exactly like the phone's log.
//
// Metadata operations — Rename, Remove — are modelled as atomic and
// immediately durable, the standard guarantee of a journalled filesystem;
// the snapshot installation relies on Rename being the atomic commit point.
// A staged replacement (WriteFile before Sync) is all-or-nothing: a crash
// before the Sync reverts the file to its previous synced content. A
// replacement is written as parts the store keeps without copying, so a
// compaction stores the shard's own log and stream bytes (see
// Server.maybeCompactLocked); readers see the concatenation.
//
// CrashStore is safe for concurrent use, but the server serialises every
// access under its own mutex anyway (lock order: Server.mu, then Dataset.mu
// or CrashStore.mu — never the reverse).
type CrashStore struct {
	mu    sync.Mutex
	files map[string]*storeFile
	rng   *sim.Rand

	appends uint64
	syncs   uint64
	crashes uint64
}

// storeFile is one named file on the crash-faithful medium.
type storeFile struct {
	// synced survives a crash verbatim.
	synced content
	// tail has been written but not synced; a crash keeps a strict prefix.
	tail []byte
	// repl is a staged full replacement (WriteFile before Sync); a crash
	// drops it entirely and the file reverts to synced.
	repl    content
	hasRepl bool
}

// content is a file's bytes: the parts WriteFile was given, which the store
// reads but never writes, then the bytes appended after them, which it owns.
type content struct {
	parts [][]byte
	own   []byte
}

func (c *content) size() int {
	n := len(c.own)
	for _, p := range c.parts {
		n += len(p)
	}
	return n
}

func (c *content) appendTo(dst []byte) []byte {
	for _, p := range c.parts {
		dst = append(dst, p...)
	}
	return append(dst, c.own...)
}

// NewCrashStore returns an empty medium. rng draws the torn-tail lengths on
// Crash; nil means a crash loses the whole un-synced tail.
func NewCrashStore(rng *sim.Rand) *CrashStore {
	return &CrashStore{files: make(map[string]*storeFile), rng: rng}
}

func (s *CrashStore) file(name string) *storeFile {
	f := s.files[name]
	if f == nil {
		f = &storeFile{}
		s.files[name] = f
	}
	return f
}

// Append adds p to the file's un-synced tail (creating the file if needed).
// The bytes are readable immediately but survive a crash only after Sync.
func (s *CrashStore) Append(name string, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(name)
	if f.hasRepl {
		f.repl.own = append(f.repl.own, p...)
	} else {
		f.tail = append(f.tail, p...)
	}
	s.appends++
}

// WriteFile stages a full replacement of the file's content: the
// concatenation of parts. Until Sync the replacement is volatile: a crash
// reverts to the previous synced content. The store keeps the parts
// without copying them, so the caller must never modify their bytes
// afterwards; it may append past a part's length, which the store never
// reads or writes.
func (s *CrashStore) WriteFile(name string, parts ...[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(name)
	f.repl = content{} // a truncation (no non-empty part) allocates nothing
	for _, p := range parts {
		if len(p) > 0 {
			f.repl.parts = append(f.repl.parts, p[:len(p):len(p)])
		}
	}
	f.hasRepl = true
	s.appends++
}

// Sync makes the file's current content durable (the sync barrier: fsync).
func (s *CrashStore) Sync(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return
	}
	if f.hasRepl {
		// Keep the capacity of the synced bytes the store owns: a
		// compaction truncates the WAL, and the appends after it would
		// otherwise regrow it from nothing. Nothing aliases them (Read
		// copies), so they can be overwritten.
		own := append(f.synced.own[:0], f.repl.own...)
		f.synced = f.repl
		f.synced.own = own
		f.repl, f.hasRepl = content{}, false
	} else {
		f.synced.own = append(f.synced.own, f.tail...)
	}
	f.tail = f.tail[:0] // the next verb's Append reuses its capacity
	s.syncs++
}

// Read returns a copy of the file's current logical content (synced bytes
// plus any un-synced tail or staged replacement). A missing file reads as
// nil.
func (s *CrashStore) Read(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil
	}
	n := f.size()
	if n == 0 {
		return nil
	}
	if f.hasRepl {
		return f.repl.appendTo(make([]byte, 0, n))
	}
	return append(f.synced.appendTo(make([]byte, 0, n)), f.tail...)
}

// size is the file's logical length, summed without building it: the
// server asks for the WAL's after every verb.
func (f *storeFile) size() int {
	if f.hasRepl {
		return f.repl.size()
	}
	return f.synced.size() + len(f.tail)
}

// Size returns the file's current logical length.
func (s *CrashStore) Size(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return 0
	}
	return f.size()
}

// Rename atomically renames a file, replacing any existing target — the
// commit point for snapshot installation. Like rename(2) on a journalled
// filesystem it is modelled as durable metadata: a crash after Rename sees
// the new name.
func (s *CrashStore) Rename(oldName, newName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldName]
	if !ok {
		return
	}
	delete(s.files, oldName)
	s.files[newName] = f
}

// Remove deletes a file (durable metadata, like Rename).
func (s *CrashStore) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
}

// Crash models the process dying: every staged replacement is dropped and
// every un-synced tail is torn to a strict prefix whose length is drawn
// from the store's RNG (nil RNG loses the whole tail), in sorted file-name
// order so the draw sequence is deterministic. Mirrors phone.FS.Crash.
func (s *CrashStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes++
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := s.files[name]
		if f.hasRepl {
			f.repl, f.hasRepl = content{}, false
			f.tail = nil
			continue
		}
		if len(f.tail) == 0 {
			continue
		}
		keep := 0
		if s.rng != nil {
			keep = s.rng.Intn(len(f.tail))
		}
		f.synced.own = append(f.synced.own, f.tail[:keep]...)
		f.tail = nil
	}
}

// Names returns the files currently present, sorted.
func (s *CrashStore) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for name := range s.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Appends returns how many write operations (Append or WriteFile) were
// issued; Syncs how many sync barriers; Crashes how many crashes were
// injected.
func (s *CrashStore) Appends() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.appends }

// Syncs returns the number of sync barriers issued.
func (s *CrashStore) Syncs() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.syncs }

// Crashes returns the number of crashes the medium survived.
func (s *CrashStore) Crashes() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.crashes }
