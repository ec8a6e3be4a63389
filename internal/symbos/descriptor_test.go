package symbos

import (
	"testing"
	"testing/quick"

	"symfail/internal/sim"
)

func TestBufCopyAppend(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Exec(proc.Main(), func() {
		b := NewBuf(k, 10)
		b.Copy("hello")
		if b.String() != "hello" || b.Len() != 5 {
			t.Errorf("after Copy: %q len %d", b.String(), b.Len())
		}
		b.Append("12345")
		if b.String() != "hello12345" {
			t.Errorf("after Append: %q", b.String())
		}
		if b.MaxLength() != 10 {
			t.Errorf("MaxLength = %d", b.MaxLength())
		}
		b.Copy("x") // Copy replaces
		if b.String() != "x" {
			t.Errorf("Copy did not replace: %q", b.String())
		}
	})
}

func TestBufCopyOverflowPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	expectPanic(t, k, proc, CatUser, TypeDesOverflow, func() {
		NewBuf(k, 3).Copy("abcd")
	})
}

func TestBufAppendOverflowPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	expectPanic(t, k, proc, CatUser, TypeDesOverflow, func() {
		b := NewBuf(k, 4)
		b.Copy("abc")
		b.Append("de")
	})
}

func TestBufInsertDeleteReplace(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Exec(proc.Main(), func() {
		b := NewBuf(k, 20)
		b.Copy("hello world")
		b.Insert(5, ",")
		if b.String() != "hello, world" {
			t.Errorf("Insert: %q", b.String())
		}
		b.Delete(5, 1)
		if b.String() != "hello world" {
			t.Errorf("Delete: %q", b.String())
		}
		b.Replace(6, 5, "there")
		if b.String() != "hello there" {
			t.Errorf("Replace: %q", b.String())
		}
	})
}

func TestBufPositionPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	cases := []struct {
		name string
		fn   func(b *Buf)
	}{
		{"Insert", func(b *Buf) { b.Insert(99, "x") }},
		{"InsertNegative", func(b *Buf) { b.Insert(-1, "x") }},
		{"Delete", func(b *Buf) { b.Delete(4, 5) }},
		{"Replace", func(b *Buf) { b.Replace(3, 9, "y") }},
		{"Mid", func(b *Buf) { b.Mid(2, 10) }},
		{"Left", func(b *Buf) { b.Left(9) }},
		{"Right", func(b *Buf) { b.Right(-2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectPanic(t, k, proc, CatUser, TypeDesIndexOutOfRange, func() {
				b := NewBuf(k, 16)
				b.Copy("abcdef")
				tc.fn(b)
			})
		})
	}
}

func TestBufExtraction(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Exec(proc.Main(), func() {
		b := NewBuf(k, 16)
		b.Copy("abcdef")
		if got := b.Mid(2, 3); got != "cde" {
			t.Errorf("Mid = %q", got)
		}
		if got := b.Left(2); got != "ab" {
			t.Errorf("Left = %q", got)
		}
		if got := b.Right(2); got != "ef" {
			t.Errorf("Right = %q", got)
		}
	})
}

func TestBufSetLengthAndZeroTerminate(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Exec(proc.Main(), func() {
		b := NewBuf(k, 8)
		b.Copy("abc")
		b.SetLength(6)
		if b.Len() != 6 {
			t.Errorf("Len = %d", b.Len())
		}
		b.SetLength(2)
		if b.String() != "ab" {
			t.Errorf("truncate: %q", b.String())
		}
		b.ZeroTerminate()
		if b.Len() != 3 {
			t.Errorf("after ZeroTerminate len = %d", b.Len())
		}
	})
	expectPanic(t, k, proc, CatUser, TypeDesOverflow, func() {
		NewBuf(k, 4).SetLength(5)
	})
	expectPanic(t, k, proc, CatUser, TypeDesOverflow, func() {
		b := NewBuf(k, 2)
		b.Copy("ab")
		b.ZeroTerminate()
	})
}

func TestBufAppendFill(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Exec(proc.Main(), func() {
		b := NewBuf(k, 6)
		b.AppendFill('z', 3)
		if b.String() != "zzz" {
			t.Errorf("AppendFill: %q", b.String())
		}
	})
	expectPanic(t, k, proc, CatUser, TypeDesOverflow, func() {
		NewBuf(k, 2).AppendFill('x', 3)
	})
	expectPanic(t, k, proc, CatUser, TypeDesIndexOutOfRange, func() {
		NewBuf(k, 2).AppendFill('x', -1)
	})
}

func TestBufLengthNeverExceedsMaxProperty(t *testing.T) {
	// Property: any sequence of descriptor operations either panics with a
	// USER panic or leaves Len() <= MaxLength(). This is the invariant the
	// bounds checks defend.
	f := func(seed uint64) bool {
		eng := sim.NewEngine()
		k := NewKernel(eng)
		proc := k.StartProcess("Prop", false)
		r := sim.NewRand(seed)
		b := NewBuf(k, 8)
		ok := true
		for i := 0; i < 40; i++ {
			k.Exec(proc.Main(), func() {
				switch r.Intn(5) {
				case 0:
					b.Copy(randString(r, 12))
				case 1:
					b.Append(randString(r, 6))
				case 2:
					b.Insert(r.Intn(10)-1, randString(r, 4))
				case 3:
					if b.Len() > 0 {
						b.Delete(r.Intn(b.Len()+2), r.Intn(4))
					}
				case 4:
					b.SetLength(r.Intn(12))
				}
			})
			if b.Len() > b.MaxLength() {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randString(r *sim.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	out := make([]rune, n)
	for i := range out {
		out[i] = rune('a' + r.Intn(26))
	}
	return string(out)
}

// refBuf is the descriptor model TestBufMatchesRuneSliceReference checks
// Buf against: every operation converts through a []rune, as Buf once did.
type refBuf struct {
	data []rune
	max  int
}

// apply runs one operation and reports the panic type it must raise (0
// for none).
func (r *refBuf) apply(op, pos, length int, s string) int {
	rs := []rune(s)
	switch op {
	case 0, 4: // Copy, CopyBytes
		if len(rs) > r.max {
			return TypeDesOverflow
		}
		r.data = append([]rune(nil), rs...)
	case 1: // Append
		if len(r.data)+len(rs) > r.max {
			return TypeDesOverflow
		}
		r.data = append(r.data, rs...)
	case 2: // Insert
		if pos < 0 || pos > len(r.data) {
			return TypeDesIndexOutOfRange
		}
		if len(r.data)+len(rs) > r.max {
			return TypeDesOverflow
		}
		r.data = append(append(append([]rune(nil), r.data[:pos]...), rs...), r.data[pos:]...)
	case 3: // Replace
		if pos < 0 || length < 0 || pos+length > len(r.data) {
			return TypeDesIndexOutOfRange
		}
		if len(r.data)-length+len(rs) > r.max {
			return TypeDesOverflow
		}
		r.data = append(append(append([]rune(nil), r.data[:pos]...), rs...), r.data[pos+length:]...)
	}
	return 0
}

// TestBufMatchesRuneSliceReference drives Copy, Append, Insert, Replace
// and CopyBytes — which write runes in place — against the []rune-converting
// model (CopyBytes against Copy's), with
// multi-byte and invalid UTF-8 strings, growing and shrinking replacements
// and out-of-range positions: the contents and every raised panic match.
func TestBufMatchesRuneSliceReference(t *testing.T) {
	alphabet := []string{"a", "z", "é", "ß", "€", "𝄞", "\xff", "\xe2\x82"}
	k := NewKernel(sim.NewEngine())
	k.SetPanicHandler(func(*Panic, *Process) {})
	proc := k.StartProcess("Ref", false)
	for seed := uint64(1); seed <= 200; seed++ {
		r := sim.NewRand(seed)
		max := 1 + r.Intn(24)
		b, ref := NewBuf(k, max), &refBuf{max: max}
		for i := 0; i < 60; i++ {
			var s string
			for n := r.Intn(7); n > 0; n-- {
				s += alphabet[r.Intn(len(alphabet))]
			}
			op, pos, length := r.Intn(5), r.Intn(b.Len()+3)-1, r.Intn(5)
			want := ref.apply(op, pos, length, s)
			p := k.Exec(proc.Main(), func() {
				switch op {
				case 0:
					b.Copy(s)
				case 1:
					b.Append(s)
				case 2:
					b.Insert(pos, s)
				case 3:
					b.Replace(pos, length, s)
				case 4:
					b.CopyBytes([]byte(s))
				}
			})
			got := 0
			if p != nil {
				got = p.Type
			}
			if got != want || b.String() != string(ref.data) {
				t.Fatalf("seed %d step %d: op %d(%d, %d, %q) on max %d: %q panic %d, reference %q panic %d",
					seed, i, op, pos, length, s, max, b.String(), got, string(ref.data), want)
			}
		}
	}
}

// TestBufOpsOnWarmBufferAllocateNothing: a descriptor with room for what
// it is given builds no temporary rune slice.
func TestBufOpsOnWarmBufferAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	b := NewBuf(NewKernel(sim.NewEngine()), 64)
	reply := []byte("3 unread €")
	op := func() {
		b.Copy("+3908112345")
		b.Append("67")
		b.Insert(3, "€€")
		b.Replace(1, 4, "x")
		b.Replace(0, 1, "long replacement")
		b.CopyBytes(reply)
	}
	op()
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Errorf("Copy/Append/Insert/Replace/CopyBytes on a warm buffer: %.1f allocs, want 0", avg)
	}
}
