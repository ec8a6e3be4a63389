package symbos

import (
	"testing"
	"time"

	"symfail/internal/sim"
)

func benchKernel(b *testing.B) (*Kernel, *Process) {
	b.Helper()
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.SetPanicHandler(func(*Panic, *Process) {})
	return k, k.StartProcess("BenchApp", false)
}

func BenchmarkExecNoPanic(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(t, func() {})
	}
}

func BenchmarkExecWithPanic(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(t, func() { NullPtr(k).Deref() })
	}
}

func BenchmarkSendReceive(b *testing.B) {
	k, proc := benchKernel(b)
	srv := NewServer(k, "BenchSrv", true, func(m *Message) { m.Complete(KErrNone) })
	sess := srv.Connect(proc.Main())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(proc.Main(), func() {
			sess.SendReceive(OpBenchPing, "payload")
		})
	}
}

// OpBenchPing is a bench-local op code.
const OpBenchPing = 1

func BenchmarkActiveObjectDispatch(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	runs := 0
	ao := t.NewActiveObject("bench", 1, func(int) { runs++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(t, func() { ao.SetActive() })
		ao.Complete(KErrNone)
		for k.Engine().Step() {
		}
	}
	if runs != b.N {
		b.Fatalf("runs = %d, want %d", runs, b.N)
	}
}

func BenchmarkTimerArmFire(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	ao := t.NewActiveObject("tick", 1, func(int) {})
	tm := NewTimer(ao)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(t, func() { tm.After(time.Second) })
		for k.Engine().Step() {
		}
	}
}

func BenchmarkHeapAllocFree(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	h := proc.Heap()
	b.ReportAllocs()
	b.ResetTimer()
	k.Exec(t, func() {
		for i := 0; i < b.N; i++ {
			c := h.AllocL(t, 64, "bench")
			h.Free(c)
		}
	})
}

func BenchmarkDescriptorOps(b *testing.B) {
	k, proc := benchKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	k.Exec(proc.Main(), func() {
		buf := NewBuf(k, 64)
		for i := 0; i < b.N; i++ {
			buf.Copy("+390811234567")
			buf.Append(" ext 42")
			_ = buf.Mid(3, 6)
			buf.Delete(0, 2)
		}
	})
}

func BenchmarkTrapLeave(b *testing.B) {
	k, proc := benchKernel(b)
	t := proc.Main()
	b.ReportAllocs()
	b.ResetTimer()
	k.Exec(t, func() {
		for i := 0; i < b.N; i++ {
			t.Trap(func() {
				t.PushL(func() {})
				t.Leave(KErrNoMemory)
			})
		}
	})
}
