package collect

import (
	"bytes"
	"strings"
	"testing"

	"symfail/internal/sim"
)

func TestCrashStoreAppendSyncRead(t *testing.T) {
	s := NewCrashStore(nil)
	s.Append("f", []byte("hello "))
	s.Append("f", []byte("world"))
	if got := s.Read("f"); string(got) != "hello world" {
		t.Errorf("Read before sync = %q, want the full logical content", got)
	}
	if got := s.Size("f"); got != 11 {
		t.Errorf("Size = %d, want 11", got)
	}
	s.Sync("f")
	s.Append("f", []byte("!!!"))
	if got := s.Read("f"); string(got) != "hello world!!!" {
		t.Errorf("Read after sync+append = %q", got)
	}
	// A nil-RNG crash loses the whole un-synced tail, keeps the synced region.
	s.Crash()
	if got := s.Read("f"); string(got) != "hello world" {
		t.Errorf("after crash = %q, want only the synced region", got)
	}
	if s.Read("missing") != nil || s.Size("missing") != 0 {
		t.Error("missing file must read as nil/empty")
	}
}

func TestCrashStoreTornTailIsStrictPrefixAndDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		s := NewCrashStore(sim.NewRand(seed))
		s.Append("f", []byte("synced region"))
		s.Sync("f")
		s.Append("f", []byte("this tail will tear"))
		s.Crash()
		return s.Read("f")
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different torn tails: %q vs %q", a, b)
	}
	if !bytes.HasPrefix(a, []byte("synced region")) {
		t.Fatalf("crash damaged the synced region: %q", a)
	}
	tail := a[len("synced region"):]
	if len(tail) >= len("this tail will tear") {
		t.Errorf("torn tail kept %d bytes of %d — must be a strict prefix",
			len(tail), len("this tail will tear"))
	}
	if !bytes.HasPrefix([]byte("this tail will tear"), tail) {
		t.Errorf("kept tail %q is not a prefix of what was written", tail)
	}
}

// TestCrashStoreAppendAfterSyncAllocatesNothing pins that Sync keeps the
// un-synced tail's capacity: in steady state the next verb's Append
// reuses it. The synced region is first given headroom for every
// measured Sync, so the count is exact.
func TestCrashStoreAppendAfterSyncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	const runs = 1000
	entry := bytes.Repeat([]byte("w"), 64)
	s := NewCrashStore(nil)
	s.Append("wal", make([]byte, 4*runs*len(entry)))
	s.Sync("wal")
	s.Append("wal", entry)
	s.Sync("wal") // grows the synced region past the bytes measured below
	if avg := testing.AllocsPerRun(runs, func() {
		s.Append("wal", entry)
		s.Sync("wal")
	}); avg != 0 {
		t.Errorf("Append after Sync: %.2f allocs per verb in steady state, want 0", avg)
	}
}

// TestCrashStoreTruncateCycleAllocatesNothing pins that a compaction's
// WAL truncation (WriteFile with no part, then Sync) keeps the synced
// region's capacity: in steady state a cycle of appends and syncs followed
// by a truncation allocates nothing.
func TestCrashStoreTruncateCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	entry := bytes.Repeat([]byte("w"), 64)
	s := NewCrashStore(nil)
	cycle := func() {
		for i := 0; i < 16; i++ {
			s.Append("wal", entry)
			s.Sync("wal")
		}
		s.WriteFile("wal")
		s.Sync("wal")
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("append+sync+truncate cycle: %.2f allocs in steady state, want 0", avg)
	}
	s.Append("wal", entry)
	if got := s.Read("wal"); !bytes.Equal(got, entry) {
		t.Errorf("after truncation and one append the WAL reads %q, want %q", got, entry)
	}
	s.Crash()
	if got := s.Read("wal"); len(got) != 0 {
		t.Errorf("a crash kept %d un-synced bytes after a truncation", len(got))
	}
}

// TestCrashStoreTornTailAfterReuse: once a tail's buffer is reused, a
// crash still keeps only a strict prefix of the new tail's bytes, none of
// the older tail's left in the buffer.
func TestCrashStoreTornTailAfterReuse(t *testing.T) {
	const old, tail = "an older and longer tail, synced", "new tail"
	for seed := uint64(1); seed <= 32; seed++ {
		s := NewCrashStore(sim.NewRand(seed))
		s.Append("f", []byte(old))
		s.Sync("f")
		s.Append("f", []byte(tail))
		s.Crash()
		got := s.Read("f")
		if !bytes.HasPrefix(got, []byte(old)) {
			t.Fatalf("seed %d: crash damaged the synced region: %q", seed, got)
		}
		kept := got[len(old):]
		if len(kept) >= len(tail) || !bytes.HasPrefix([]byte(tail), kept) {
			t.Errorf("seed %d: torn tail kept %q, want a strict prefix of %q", seed, kept, tail)
		}
	}
}

func TestCrashStoreStagedReplacementIsAllOrNothing(t *testing.T) {
	s := NewCrashStore(nil)
	s.Append("f", []byte("old content"))
	s.Sync("f")

	// Staged but not synced: readable now, gone after a crash.
	s.WriteFile("f", []byte("NEW"))
	if got := s.Read("f"); string(got) != "NEW" {
		t.Errorf("Read of staged replacement = %q", got)
	}
	s.Crash()
	if got := s.Read("f"); string(got) != "old content" {
		t.Errorf("crash during staged replacement left %q, want the old synced content", got)
	}

	// Staged and synced: the replacement is durable.
	s.WriteFile("f", []byte("NEW2"))
	s.Sync("f")
	s.Crash()
	if got := s.Read("f"); string(got) != "NEW2" {
		t.Errorf("synced replacement lost in crash: %q", got)
	}

	// Appends after WriteFile extend the staged copy, and die with it.
	s.WriteFile("f", []byte("base"))
	s.Append("f", []byte("+more"))
	if got := s.Read("f"); string(got) != "base+more" {
		t.Errorf("append onto staged replacement = %q", got)
	}
	s.Crash()
	if got := s.Read("f"); string(got) != "NEW2" {
		t.Errorf("crash must drop the staged copy and its appends, got %q", got)
	}
}

func TestCrashStoreRenameRemoveDurable(t *testing.T) {
	s := NewCrashStore(nil)
	s.Append("tmp", []byte("snapshot bytes"))
	s.Sync("tmp")
	s.Append("target", []byte("old snapshot"))
	s.Sync("target")

	s.Rename("tmp", "target")
	s.Crash() // metadata ops are journalled: the rename survives
	if got := s.Read("target"); string(got) != "snapshot bytes" {
		t.Errorf("after rename+crash target = %q", got)
	}
	if s.Read("tmp") != nil {
		t.Error("old name still present after rename")
	}

	s.Remove("target")
	s.Crash()
	if s.Read("target") != nil {
		t.Error("removed file came back after a crash")
	}
	s.Rename("missing", "other") // renaming a missing file is a no-op
	if names := s.Names(); len(names) != 0 {
		t.Errorf("store should be empty, has %v", names)
	}
}

// TestCrashStoreWriteFileKeepsCallerCapacity: WriteFile owns its buffer but
// not the capacity past it, so later Appends — onto the staged copy or onto
// the synced one — never write into the caller's memory.
func TestCrashStoreWriteFileKeepsCallerCapacity(t *testing.T) {
	buf := bytes.Repeat([]byte{'#'}, 64)
	copy(buf, "base")
	s := NewCrashStore(nil)
	s.WriteFile("f", buf[:4])
	s.Append("f", []byte("+staged"))
	s.Sync("f")
	s.Append("f", []byte("+tail"))
	s.Sync("f")
	if got := s.Read("f"); string(got) != "base+staged+tail" {
		t.Errorf("store reads %q", got)
	}
	if want := "base" + strings.Repeat("#", 60); string(buf) != want {
		t.Errorf("caller's buffer became %q", buf)
	}
}

// TestCrashStoreWriteFileParts: a replacement written as parts reads, sizes
// and recovers as their concatenation; it is all or nothing under Crash
// like a one-buffer WriteFile; Appends after it land past the parts,
// staged and synced alike, and tear like any tail; and no part's memory,
// its spare capacity included, is ever written.
func TestCrashStoreWriteFileParts(t *testing.T) {
	a := append(make([]byte, 0, 32), "head|"...)
	b := append(make([]byte, 0, 32), "body"...)
	parts := [][]byte{a, nil, b, []byte("|end")}
	s := NewCrashStore(sim.NewRand(3))
	s.Append("f", []byte("old"))
	s.Sync("f")

	s.WriteFile("f", parts...)
	if got, n := s.Read("f"), s.Size("f"); string(got) != "head|body|end" || n != len(got) {
		t.Errorf("staged parts read %q, size %d", got, n)
	}
	s.Append("f", []byte("+staged"))
	s.Crash()
	if got := s.Read("f"); string(got) != "old" {
		t.Errorf("a crash before Sync left %q, want the old synced content", got)
	}

	s.WriteFile("f", parts...)
	s.Append("f", []byte("+staged"))
	s.Sync("f")
	s.Crash()
	if got := s.Read("f"); string(got) != "head|body|end+staged" {
		t.Errorf("synced parts and append after a crash: %q", got)
	}
	s.Append("f", []byte("+tail"))
	if got, n := s.Read("f"), s.Size("f"); string(got) != "head|body|end+staged+tail" || n != len(got) {
		t.Errorf("append after synced parts read %q, size %d", got, n)
	}
	s.Crash()
	got := s.Read("f")
	if !bytes.HasPrefix(got, []byte("head|body|end+staged")) || !bytes.HasPrefix([]byte("head|body|end+staged+tail"), got) || len(got) == len("head|body|end+staged+tail") {
		t.Errorf("crash tore the appended tail to %q, want a strict prefix of it after the synced parts", got)
	}
	s.Sync("f")
	s.Append("f", []byte("!"))
	s.Sync("f")
	if got2 := s.Read("f"); string(got2) != string(got)+"!" {
		t.Errorf("append after a torn tail read %q", got2)
	}
	if string(a[:cap(a)][:5]) != "head|" || string(b[:cap(b)][:4]) != "body" || !bytes.Equal(a[5:cap(a)], make([]byte, cap(a)-5)) || !bytes.Equal(b[4:cap(b)], make([]byte, cap(b)-4)) {
		t.Errorf("the store wrote into a part's memory: %q, %q", a[:cap(a)], b[:cap(b)])
	}
}
