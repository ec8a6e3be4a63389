package phone

import (
	"bytes"
	"testing"

	"symfail/internal/sim"
)

// FuzzDecodeActivity: the Database Log Server response parser must never
// panic, whatever a (possibly panicking) server handed back.
func FuzzDecodeActivity(f *testing.F) {
	f.Add("")
	f.Add("voice-call@100:200")
	f.Add("voice-call@100:-1;message@5:9")
	f.Add("garbage;;x@y;a@1:z;@:")
	f.Add("voice-call@:;@1:2")
	f.Fuzz(func(t *testing.T, s string) {
		recs := DecodeActivity(s)
		for _, r := range recs {
			// Whatever decodes must be internally consistent.
			if !r.Ongoing() && r.End < r.Start {
				// Possible with adversarial input: decode tolerates it,
				// but the record must still round-trip without panicking.
				_ = r
			}
		}
		// Round-trip what survived: encode->decode is stable.
		again := DecodeActivity(encodeActivity(recs))
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
	})
}

// refFS is the flash model FuzzFlashOps checks FS against: the same fault
// semantics and the same random draws, but every write, append, bit flip
// and tear stores a fresh copy, so no stored file ever shares memory with
// another or with a caller.
type refFS struct {
	files  map[string][]byte
	faults FlashFaults
	rng    *sim.Rand

	lastPath      string
	lastOff       int
	lastN         int
	writes, torn  uint64
	flips, reject uint64
}

func (r *refFS) total() int {
	n := 0
	for _, d := range r.files {
		n += len(d)
	}
	return n
}

func (r *refFS) write(path string, data []byte) bool {
	if q := r.faults.QuotaBytes; q > 0 && r.total()-len(r.files[path])+len(data) > q {
		r.reject++
		return false
	}
	r.files[path] = append([]byte(nil), data...)
	r.note(path, 0, len(data))
	return true
}

func (r *refFS) append(path string, data []byte) bool {
	if q := r.faults.QuotaBytes; q > 0 && r.total()+len(data) > q {
		r.reject++
		return false
	}
	old := r.files[path]
	r.files[path] = append(append([]byte(nil), old...), data...)
	r.note(path, len(old), len(data))
	return true
}

func (r *refFS) note(path string, off, n int) {
	r.writes++
	r.lastPath, r.lastOff, r.lastN = path, off, n
	if r.faults.BitRotPerWrite <= 0 {
		return
	}
	if file := r.files[path]; len(file) > 0 && r.rng.Bool(r.faults.BitRotPerWrite) {
		bit := r.rng.Intn(len(file) * 8)
		flipped := append([]byte(nil), file...)
		flipped[bit/8] ^= 1 << (bit % 8)
		r.files[path] = flipped
		r.flips++
	}
}

func (r *refFS) crash() {
	if r.lastN == 0 || !r.rng.Bool(r.faults.TornWriteProb) {
		return
	}
	file, ok := r.files[r.lastPath]
	if !ok || len(file) < r.lastOff+r.lastN {
		return
	}
	keep := r.rng.Intn(r.lastN)
	r.files[r.lastPath] = append([]byte(nil), file[:r.lastOff+keep]...)
	r.torn++
	r.lastN = 0
}

// FuzzFlashOps runs a fuzzed program of Write, Append, Crash, Read, Delete
// and a write-back of a view on a few paths against FS and refFS under torn
// writes, bit rot and a quota, and compares every file and fault counter
// after each step. FS reuses a file's capacity on rewrite and flips rotted
// bits in place, so the test also checks what that must not break: a
// caller's buffer is copied (scribbling over it after the call changes no
// file), the bytes a Read returned never change after a later Write or
// Append, a View equals Read until the next op, and writing back a prefix
// or a suffix of a file's own view (the logger's repair and rotation)
// stores what a copy would.
func FuzzFlashOps(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{0, 8, 1, 4, 2, 3, 1, 9, 2, 4})
	f.Add(uint64(7), uint16(40), []byte{1, 20, 1, 20, 0, 30, 3, 2, 0, 5, 3, 2, 4, 1, 6})
	f.Add(uint64(42), uint16(16), []byte{0, 12, 5, 3, 10, 2, 1, 7, 2, 3, 8, 3, 0, 31, 3})
	f.Add(uint64(9), uint16(0), []byte{0, 30, 5, 9, 1, 20, 5, 14, 11, 7, 5, 40, 2, 17, 3})
	paths := []string{"beats", "log", "runapp"}
	f.Fuzz(func(t *testing.T, seed uint64, quota uint16, prog []byte) {
		faults := FlashFaults{TornWriteProb: 0.5, BitRotPerWrite: 0.25, QuotaBytes: int(quota % 512)}
		fs := NewFS()
		fs.EnableFaults(faults, sim.NewRand(seed))
		ref := &refFS{files: map[string][]byte{}, faults: faults, rng: sim.NewRand(seed)}
		type held struct{ got, want []byte }
		var reads, views []held
		scratch := make([]byte, 0, 64)
		for i := 0; i < len(prog); i++ {
			for _, v := range views {
				if !bytes.Equal(v.got, v.want) {
					t.Fatalf("step %d: a view changed before the next op: %q, read as %q", i, v.got, v.want)
				}
			}
			views = views[:0]
			op, path := prog[i]%6, paths[int(prog[i]/6)%len(paths)]
			switch op {
			case 0, 1: // Write, Append: the next byte is the length
				n := 0
				if i+1 < len(prog) {
					i++
					n = int(prog[i]) % 40
				}
				scratch = scratch[:0]
				for j := 0; j < n; j++ {
					scratch = append(scratch, byte(i*31+j))
				}
				var got, want bool
				if op == 0 {
					got, want = fs.Write(path, scratch), ref.write(path, scratch)
				} else {
					got, want = fs.Append(path, scratch), ref.append(path, scratch)
				}
				if got != want {
					t.Fatalf("step %d: op %d %s accepted=%v, reference %v", i, op, path, got, want)
				}
				for j := range scratch {
					scratch[j] = 0xee
				}
			case 2:
				fs.Crash()
				ref.crash()
			case 3:
				got, ok := fs.Read(path)
				want, wok := ref.files[path]
				if ok != wok || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Read(%s) = %q %v, reference %q %v", i, path, got, ok, want, wok)
				}
				reads = append(reads, held{got, append([]byte(nil), got...)})
			case 4:
				fs.Delete(path)
				delete(ref.files, path)
			case 5: // write back a prefix (even) or suffix (odd) of the view
				k := 0
				if i+1 < len(prog) {
					i++
					k = int(prog[i])
				}
				view, ok := fs.View(path)
				if !ok {
					break
				}
				cut := (k / 2) % (len(view) + 1)
				part := view[:cut]
				if k%2 == 1 {
					part = view[cut:]
				}
				want := ref.write(path, append([]byte(nil), part...))
				if got := fs.Write(path, part); got != want {
					t.Fatalf("step %d: write-back of %s's view accepted=%v, reference %v", i, path, got, want)
				}
			}
			for _, p := range paths {
				got, ok := fs.Read(p)
				want, wok := ref.files[p]
				if ok != wok || !bytes.Equal(got, want) || fs.Size(p) != len(want) {
					t.Fatalf("step %d: %s = %q %v, reference %q %v", i, p, got, ok, want, wok)
				}
				view, vok := fs.View(p)
				if vok != ok || !bytes.Equal(view, got) {
					t.Fatalf("step %d: View(%s) = %q %v, Read %q %v", i, p, view, vok, got, ok)
				}
				views = append(views, held{view, got})
			}
			if fs.Writes() != ref.writes || fs.TornWrites() != ref.torn ||
				fs.BitFlips() != ref.flips || fs.QuotaRejects() != ref.reject || fs.TotalSize() != ref.total() {
				t.Fatalf("step %d: counters writes/torn/flips/rejects/size %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
					i, fs.Writes(), fs.TornWrites(), fs.BitFlips(), fs.QuotaRejects(), fs.TotalSize(),
					ref.writes, ref.torn, ref.flips, ref.reject, ref.total())
			}
			for _, r := range reads {
				if !bytes.Equal(r.got, r.want) {
					t.Fatalf("step %d: bytes an earlier Read returned changed: %q, read as %q", i, r.got, r.want)
				}
			}
		}
	})
}
