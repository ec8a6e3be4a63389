package symbos

import (
	"testing"
	"testing/quick"

	"symfail/internal/sim"
)

func TestHeapAllocFree(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.Heap()
	k.Exec(proc.Main(), func() {
		c := h.AllocL(proc.Main(), 100, "buf")
		if h.Allocated() != 100 || h.LiveCells() != 1 {
			t.Errorf("allocated=%d live=%d", h.Allocated(), h.LiveCells())
		}
		h.Free(c)
		if h.Allocated() != 0 || h.LiveCells() != 0 {
			t.Errorf("after free: allocated=%d live=%d", h.Allocated(), h.LiveCells())
		}
		if !c.Freed() {
			t.Error("cell not marked freed")
		}
	})
	allocs, frees := h.Counts()
	if allocs != 1 || frees != 1 {
		t.Errorf("counts = %d/%d", allocs, frees)
	}
}

func TestHeapExhaustionLeaves(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.Heap()
	h.SetLimit(64)
	var code int
	k.Exec(proc.Main(), func() {
		code = proc.Main().Trap(func() {
			h.AllocL(proc.Main(), 65, "big")
		})
	})
	if code != KErrNoMemory {
		t.Errorf("leave code = %s", ErrName(code))
	}
	if h.Allocated() != 0 {
		t.Errorf("failed alloc leaked %d bytes", h.Allocated())
	}
}

func TestHeapDoubleFreeIsAccessViolation(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.Heap()
	var c *Cell
	k.Exec(proc.Main(), func() {
		c = h.AllocL(proc.Main(), 10, "x")
		h.Free(c)
	})
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() {
		h.Free(c)
	})
}

func TestHeapFreeNilIsNoop(t *testing.T) {
	k, proc := newTestKernel(t)
	if p := k.Exec(proc.Main(), func() { proc.Heap().Free(nil) }); p != nil {
		t.Fatalf("User::Free(NULL) panicked: %v", p)
	}
}

func TestHeapForeignFreeIsAccessViolation(t *testing.T) {
	k, proc := newTestKernel(t)
	other := k.StartProcess("Other", false)
	var c *Cell
	k.Exec(other.Main(), func() {
		c = other.Heap().AllocL(other.Main(), 8, "foreign")
	})
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() {
		proc.Heap().Free(c)
	})
}

func TestHeapZeroSizeAllocPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	expectPanic(t, k, proc, CatE32UserCBase, TypeCBase91, func() {
		proc.Heap().AllocL(proc.Main(), 0, "zero")
	})
}

func TestNullPtrDeref(t *testing.T) {
	k, proc := newTestKernel(t)
	p := NullPtr(k)
	if !p.Nil() || p.Dangling() {
		t.Error("null pointer misclassified")
	}
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() { p.Deref() })
}

func TestDanglingPtrDeref(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.Heap()
	var ptr Ptr
	k.Exec(proc.Main(), func() {
		c := h.AllocL(proc.Main(), 4, "d")
		ptr = PtrTo(k, c)
		if ptr.Deref() != c {
			t.Error("live pointer should deref to its cell")
		}
		h.Free(c)
	})
	if !ptr.Dangling() {
		t.Error("pointer should be dangling after free")
	}
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() { ptr.Deref() })
}

func TestTwoPhaseConstructionSuccess(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.Heap()
	k.Exec(proc.Main(), func() {
		c := TwoPhaseConstructL(proc.Main(), h, 32, "obj", func(*Cell) {})
		if c.Freed() {
			t.Error("constructed object was freed")
		}
		if proc.Main().CleanupDepth() != 0 {
			t.Errorf("cleanup depth = %d after successful construction", proc.Main().CleanupDepth())
		}
		h.Free(c)
	})
}

func TestTwoPhaseConstructionLeaveFreesViaCleanupStack(t *testing.T) {
	// This is the exact scenario section 2 describes: "when errors occur
	// during the construction of an object, the dynamic extension is freed
	// using the clean-up stack mechanism".
	k, proc := newTestKernel(t)
	h := proc.Heap()
	k.Exec(proc.Main(), func() {
		main := proc.Main()
		code := main.Trap(func() {
			TwoPhaseConstructL(main, h, 32, "obj", func(*Cell) {
				main.Leave(KErrGeneral)
			})
		})
		if code != KErrGeneral {
			t.Errorf("leave code = %s", ErrName(code))
		}
		if h.Allocated() != 0 {
			t.Errorf("construction failure leaked %d bytes", h.Allocated())
		}
	})
}

func TestTrapUnwindsOnlyItemsPushedInsideTrap(t *testing.T) {
	k, proc := newTestKernel(t)
	main := proc.Main()
	destroyedOuter := false
	k.Exec(main, func() {
		main.PushL(func() { destroyedOuter = true })
		code := main.Trap(func() {
			main.PushL(func() {})
			main.Leave(KErrNotFound)
		})
		if code != KErrNotFound {
			t.Errorf("leave code = %s", ErrName(code))
		}
		if destroyedOuter {
			t.Error("trap destroyed an item pushed before the trap")
		}
		if main.CleanupDepth() != 1 {
			t.Errorf("cleanup depth = %d, want 1", main.CleanupDepth())
		}
		main.PopAndDestroy(1)
	})
	if !destroyedOuter {
		t.Error("PopAndDestroy did not run the destructor")
	}
}

func TestNestedTraps(t *testing.T) {
	k, proc := newTestKernel(t)
	main := proc.Main()
	k.Exec(main, func() {
		outer := main.Trap(func() {
			inner := main.Trap(func() { main.Leave(KErrOverflow) })
			if inner != KErrOverflow {
				t.Errorf("inner leave = %s", ErrName(inner))
			}
			main.Leave(KErrArgument)
		})
		if outer != KErrArgument {
			t.Errorf("outer leave = %s", ErrName(outer))
		}
		if main.InTrap() {
			t.Error("InTrap true outside all traps")
		}
	})
}

func TestPushLWithoutCleanupStackPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	worker := proc.SpawnThread("worker")
	worker.DropCleanupStack()
	p := k.Exec(worker, func() {
		worker.PushL(func() {})
	})
	if p == nil || p.Key() != "E32USER-CBase 69" {
		t.Fatalf("panic = %v, want E32USER-CBase 69", p)
	}
}

func TestCleanupPopUnderflowPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	expectPanic(t, k, proc, CatE32UserCBase, TypeCBase91, func() {
		proc.Main().Pop(1)
	})
	expectPanic(t, k, proc, CatE32UserCBase, TypeCBase92, func() {
		proc.Main().PopAndDestroy(3)
	})
}

func TestHeapNeverLeaksUnderTrappedAllocationStorm(t *testing.T) {
	// Property: whatever interleaving of allocations, pushes and leaves a
	// trapped workload performs, a leave never strands bytes that were
	// protected by the cleanup stack.
	f := func(seed uint64) bool {
		eng := sim.NewEngine()
		k := NewKernel(eng)
		proc := k.StartProcess("Prop", false)
		main := proc.Main()
		r := sim.NewRand(seed)
		ok := true
		k.Exec(main, func() {
			main.Trap(func() {
				for i := 0; i < 50; i++ {
					c := proc.Heap().AllocL(main, 1+r.Intn(64), "s")
					main.PushL(func() { proc.Heap().Free(c) })
					if r.Bool(0.05) {
						main.Leave(KErrGeneral)
					}
				}
				main.PopAndDestroy(50)
			})
			ok = proc.Heap().Allocated() == 0
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
