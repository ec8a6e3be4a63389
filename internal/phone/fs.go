package phone

import (
	"fmt"
	"sort"

	"symfail/internal/sim"
)

// FlashFaults calibrates the adversity model of the flash medium. The zero
// value is a perfect flash (the pre-adversity behaviour, bit for bit). All
// randomness comes from a Split() child of the device RNG, so fault
// injection is a pure function of the seed.
type FlashFaults struct {
	// TornWriteProb is the chance that the write in flight when power is
	// lost abruptly (a frozen phone's battery pull) persists only a
	// prefix. Orderly shutdowns flush and never tear.
	TornWriteProb float64
	// BitRotPerWrite is the per-write-operation chance that one stored
	// bit of the file being written flips at rest (worn NAND cells).
	BitRotPerWrite float64
	// QuotaBytes caps total flash occupancy; writes that would exceed it
	// are rejected (the file server reports KErrDiskFull). Zero means
	// unlimited.
	QuotaBytes int
}

// Enabled reports whether any fault mode is active.
func (c FlashFaults) Enabled() bool {
	return c.TornWriteProb > 0 || c.BitRotPerWrite > 0 || c.QuotaBytes > 0
}

// FS is the phone's flash filesystem. It persists across reboots, freezes
// and battery pulls — which is precisely why the paper's logger can infer a
// freeze at the next boot: the last heartbeat record survives on flash.
//
// With EnableFaults it also misbehaves the way study-era flash did: an
// abrupt power loss can tear the most recent write down to a prefix, worn
// cells flip bits, and the medium fills up.
type FS struct {
	files  map[string]*flashFile
	writes uint64

	// memo is the file last looked up: the logger touches one file
	// several times in a row (a size check, then an append), and a hit
	// costs a string comparison instead of a hash.
	memoPath string
	memo     *flashFile

	faults FlashFaults
	rng    *sim.Rand

	// The most recent write is the one "in flight" when power vanishes:
	// a later write implicitly syncs it.
	lastPath string
	lastOff  int // file length before the last write landed
	lastN    int // bytes the last write added past lastOff

	tornWrites   uint64
	bitFlips     uint64
	quotaRejects uint64
}

// flashFile is one file's bytes. Files are held by pointer so a write
// changes the file in place, with no map assignment.
type flashFile struct{ data []byte }

// NewFS returns an empty, perfect filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string]*flashFile)}
}

// lookup returns path's file, or nil when it does not exist.
func (f *FS) lookup(path string) *flashFile {
	if f.memo != nil && f.memoPath == path {
		return f.memo
	}
	fl := f.files[path]
	if fl != nil {
		f.memoPath, f.memo = path, fl
	}
	return fl
}

// create returns path's file, creating it empty if needed.
func (f *FS) create(path string) *flashFile {
	fl := f.lookup(path)
	if fl == nil {
		fl = &flashFile{}
		f.files[path] = fl
		f.memoPath, f.memo = path, fl
	}
	return fl
}

// data returns path's bytes (nil when it does not exist).
func (f *FS) data(path string) []byte {
	if fl := f.lookup(path); fl != nil {
		return fl.data
	}
	return nil
}

// EnableFaults arms the adversity model. rng must be a Split() child of
// the device RNG (the call order of Split is part of the deterministic
// contract); cfg's zero value disarms faults again.
func (f *FS) EnableFaults(cfg FlashFaults, rng *sim.Rand) {
	f.faults = cfg
	f.rng = rng
}

// Write replaces the contents of path, reusing the file's capacity (a
// rewritten heartbeat file does not regrow from nothing). It reports false
// when the flash quota would be exceeded (the write is rejected whole,
// like a full medium). data is copied, and it may alias a view of the same
// file (the copy is a memmove): a repair writes back a prefix or a suffix
// of what it read.
func (f *FS) Write(path string, data []byte) bool {
	if !f.CanWrite(path, data) {
		f.quotaRejects++
		return false
	}
	fl := f.create(path)
	fl.data = append(fl.data[:0], data...)
	f.writes++
	f.noteWrite(path, 0, len(data))
	return true
}

// Append adds data to the end of path, creating it if needed. It reports
// false when the flash quota would be exceeded.
func (f *FS) Append(path string, data []byte) bool {
	if !f.CanAppend(path, data) {
		f.quotaRejects++
		return false
	}
	fl := f.create(path)
	off := len(fl.data)
	fl.data = append(fl.data, data...)
	f.writes++
	f.noteWrite(path, off, len(data))
	return true
}

// CanWrite reports whether replacing path with data fits the quota.
func (f *FS) CanWrite(path string, data []byte) bool {
	return f.faults.QuotaBytes <= 0 ||
		f.TotalSize()-len(f.data(path))+len(data) <= f.faults.QuotaBytes
}

// CanAppend reports whether appending data to path fits the quota.
func (f *FS) CanAppend(path string, data []byte) bool {
	return f.faults.QuotaBytes <= 0 || f.TotalSize()+len(data) <= f.faults.QuotaBytes
}

// noteWrite tracks the in-flight write and applies bit rot to the file
// just written.
func (f *FS) noteWrite(path string, off, n int) {
	f.lastPath, f.lastOff, f.lastN = path, off, n
	if f.faults.BitRotPerWrite <= 0 || f.rng == nil {
		return
	}
	if file := f.data(path); len(file) > 0 && f.rng.Bool(f.faults.BitRotPerWrite) {
		bit := f.rng.Intn(len(file) * 8)
		file[bit/8] ^= 1 << (bit % 8)
		f.bitFlips++
	}
}

// Crash models an abrupt power loss (battery pulled from a frozen phone):
// with TornWriteProb the most recent write persists only a prefix of what
// it wrote. Orderly shutdowns must not call this — Symbian flushes file
// buffers on the way down.
func (f *FS) Crash() {
	if f.rng == nil || f.lastN == 0 || !f.rng.Bool(f.faults.TornWriteProb) {
		return
	}
	fl := f.lookup(f.lastPath)
	if fl == nil || len(fl.data) < f.lastOff+f.lastN {
		return // the file shrank since (rewrite/delete); nothing in flight
	}
	keep := f.rng.Intn(f.lastN) // strictly less than lastN: a true tear
	fl.data = fl.data[:f.lastOff+keep]
	f.tornWrites++
	f.lastN = 0
}

// TornWrites, BitFlips and QuotaRejects count injected flash faults
// (ground truth for experiments; the logger never reads these).
func (f *FS) TornWrites() uint64 { return f.tornWrites }

// BitFlips counts injected bit-rot events.
func (f *FS) BitFlips() uint64 { return f.bitFlips }

// QuotaRejects counts writes rejected by the flash-full quota.
func (f *FS) QuotaRejects() uint64 { return f.quotaRejects }

// Read returns the contents of path and whether it exists. The returned
// slice is a copy; callers cannot corrupt the stored file.
func (f *FS) Read(path string) ([]byte, bool) {
	fl := f.lookup(path)
	if fl == nil {
		return nil, false
	}
	return append([]byte(nil), fl.data...), true
}

// View returns the stored bytes of path themselves, not a copy: the file
// server's read reply. They stay valid until path is next written or
// deleted, and must not be modified.
func (f *FS) View(path string) ([]byte, bool) {
	fl := f.lookup(path)
	if fl == nil {
		return nil, false
	}
	return fl.data, true
}

// Delete removes path (missing paths are fine).
func (f *FS) Delete(path string) {
	delete(f.files, path)
	if f.memoPath == path {
		f.memo = nil
	}
}

// Exists reports whether path is present.
func (f *FS) Exists(path string) bool { return f.lookup(path) != nil }

// Size returns the length of path in bytes (0 when missing).
func (f *FS) Size(path string) int { return len(f.data(path)) }

// TotalSize returns the number of bytes stored across all files.
func (f *FS) TotalSize() int {
	total := 0
	for _, fl := range f.files {
		total += len(fl.data)
	}
	return total
}

// Writes returns the cumulative number of write operations (flash wear).
func (f *FS) Writes() uint64 { return f.writes }

// List returns all paths in lexical order.
func (f *FS) List() []string {
	out := make([]string, 0, len(f.files))
	for p := range f.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// MasterReset wipes the filesystem — the "all settings are reset to the
// factory settings and the user's content is removed" recovery action the
// forum study describes for service-centre visits.
func (f *FS) MasterReset() {
	f.files = make(map[string]*flashFile)
	f.memo = nil
}

// String summarises the filesystem for diagnostics.
func (f *FS) String() string {
	return fmt.Sprintf("fs{files=%d bytes=%d writes=%d}", len(f.files), f.TotalSize(), f.writes)
}
