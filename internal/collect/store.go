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
// before the Sync reverts the file to its previous synced content.
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
	synced []byte
	// tail has been written but not synced; a crash keeps a strict prefix.
	tail []byte
	// repl is a staged full replacement (WriteFile before Sync); a crash
	// drops it entirely and the file reverts to synced.
	repl    []byte
	hasRepl bool
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
		f.repl = append(f.repl, p...)
	} else {
		f.tail = append(f.tail, p...)
	}
	s.appends++
}

// WriteFile stages a full replacement of the file's content. Until Sync the
// replacement is volatile: a crash reverts to the previous synced content.
// The store takes ownership of p, which the caller must not modify
// afterwards; its capacity is clipped, so a later Append copies rather
// than writing into the caller's memory past len(p).
func (s *CrashStore) WriteFile(name string, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(name)
	f.repl = p[:len(p):len(p)]
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
		f.synced = f.repl
		f.repl, f.hasRepl = nil, false
	} else {
		f.synced = append(f.synced, f.tail...)
	}
	f.tail = nil
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
	return append([]byte(nil), f.logical()...)
}

func (f *storeFile) logical() []byte {
	if f.hasRepl {
		return f.repl
	}
	if len(f.tail) == 0 {
		return f.synced
	}
	return append(f.synced[:len(f.synced):len(f.synced)], f.tail...)
}

// Size returns the file's current logical length.
func (s *CrashStore) Size(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return 0
	}
	return len(f.logical())
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
			f.repl, f.hasRepl = nil, false
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
		f.synced = append(f.synced, f.tail[:keep]...)
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
