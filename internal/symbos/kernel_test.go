package symbos

import (
	"strings"
	"testing"

	"symfail/internal/sim"
)

// newTestKernel returns a kernel with one ordinary app process. A keep-alive
// panic handler is installed so that tests can exercise several panics in a
// row without the default policy terminating the process between them; tests
// of the default policy itself construct their own kernel.
func newTestKernel(t *testing.T) (*Kernel, *Process) {
	t.Helper()
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.SetPanicHandler(func(*Panic, *Process) {})
	proc := k.StartProcess("TestApp", false)
	return k, proc
}

// expectPanic runs fn in proc's main thread and asserts it panics with the
// given category and type.
func expectPanic(t *testing.T, k *Kernel, proc *Process, cat Category, typ int, fn func()) *Panic {
	t.Helper()
	p := k.Exec(proc.Main(), fn)
	if p == nil {
		t.Fatalf("expected panic %s %d, got none", cat, typ)
	}
	if p.Category != cat || p.Type != typ {
		t.Fatalf("got panic %s %d (%s), want %s %d", p.Category, p.Type, p.Reason, cat, typ)
	}
	return p
}

func TestExecCompletesWithoutPanic(t *testing.T) {
	k, proc := newTestKernel(t)
	ran := false
	if p := k.Exec(proc.Main(), func() { ran = true }); p != nil {
		t.Fatalf("unexpected panic: %v", p)
	}
	if !ran {
		t.Error("fn did not run")
	}
}

func TestExecRecordsPanicContext(t *testing.T) {
	k, proc := newTestKernel(t)
	p := expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() {
		NullPtr(k).Deref()
	})
	if p.Process != "TestApp" {
		t.Errorf("Process = %q", p.Process)
	}
	if p.Thread != "TestApp::Main" {
		t.Errorf("Thread = %q", p.Thread)
	}
	if p.System {
		t.Error("app panic marked System")
	}
	if p.Time != k.Now() {
		t.Errorf("Time = %v, want %v", p.Time, k.Now())
	}
	if !strings.Contains(p.Error(), "KERN-EXEC 3") {
		t.Errorf("Error() = %q", p.Error())
	}
}

func TestDefaultPolicyTerminatesProcess(t *testing.T) {
	k := NewKernel(sim.NewEngine())
	proc := k.StartProcess("TestApp", false)
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() {
		NullPtr(k).Deref()
	})
	if proc.Alive() {
		t.Error("process still alive after panic with default policy")
	}
	if k.PanicsRaised() != 1 {
		t.Errorf("PanicsRaised = %d", k.PanicsRaised())
	}
}

func TestPanicHandlerOverridesDefault(t *testing.T) {
	k, proc := newTestKernel(t)
	var seen *Panic
	k.SetPanicHandler(func(p *Panic, pr *Process) { seen = p })
	expectPanic(t, k, proc, CatKernExec, TypeUnhandledException, func() {
		NullPtr(k).Deref()
	})
	if seen == nil {
		t.Fatal("handler not called")
	}
	if !proc.Alive() {
		t.Error("handler installed, yet default termination still applied")
	}
}

func TestRDebugSubscribersSeeEveryPanic(t *testing.T) {
	k, proc := newTestKernel(t)
	var keys []string
	k.SubscribeRDebug(func(p *Panic) { keys = append(keys, p.Key()) })
	k.Exec(proc.Main(), func() { NullPtr(k).Deref() })
	proc2 := k.StartProcess("Other", false)
	k.Exec(proc2.Main(), func() { NewBuf(k, 1).Copy("toolong") })
	if len(keys) != 2 || keys[0] != "KERN-EXEC 3" || keys[1] != "USER 11" {
		t.Errorf("rdebug keys = %v", keys)
	}
}

func TestExecOnDeadProcessIsNoop(t *testing.T) {
	k, proc := newTestKernel(t)
	k.TerminateProcess(proc)
	ran := false
	if p := k.Exec(proc.Main(), func() { ran = true }); p != nil {
		t.Fatalf("panic from dead process: %v", p)
	}
	if ran {
		t.Error("code ran in dead process")
	}
}

func TestExecOnHaltedKernelIsNoop(t *testing.T) {
	k, proc := newTestKernel(t)
	k.Halt()
	if !k.Halted() {
		t.Fatal("Halted() false after Halt")
	}
	ran := false
	k.Exec(proc.Main(), func() { ran = true })
	if ran {
		t.Error("code ran on halted kernel (freeze should stop everything)")
	}
}

func TestNestedExecRestoresContext(t *testing.T) {
	k, proc := newTestKernel(t)
	srvProc := k.StartProcess("Srv", true)
	var inner, outer *Panic
	outer = k.Exec(proc.Main(), func() {
		inner = k.Exec(srvProc.Main(), func() {
			NullPtr(k).Deref()
		})
		// After the inner boundary recovered, the outer context must be
		// restored: a panic here belongs to TestApp again.
		NewBuf(k, 0).Append("x")
	})
	if inner == nil || inner.Process != "Srv" || !inner.System {
		t.Fatalf("inner panic = %+v", inner)
	}
	if outer == nil || outer.Process != "TestApp" || outer.Key() != "USER 11" {
		t.Fatalf("outer panic = %+v", outer)
	}
}

func TestLeaveWithoutTrapBecomesNoTrapHandlerPanic(t *testing.T) {
	k, proc := newTestKernel(t)
	p := expectPanic(t, k, proc, CatE32UserCBase, TypeNoTrapHandler, func() {
		proc.Main().Leave(KErrNoMemory)
	})
	if !strings.Contains(p.Reason, "KErrNoMemory") {
		t.Errorf("Reason = %q", p.Reason)
	}
}

func TestGoBugsAreNotMasked(t *testing.T) {
	k, proc := newTestKernel(t)
	defer func() {
		if recover() == nil {
			t.Error("simulator bug was swallowed by Exec")
		}
	}()
	k.Exec(proc.Main(), func() {
		panic("plain Go panic, not a symbian one")
	})
}

func TestProcessesDeterministicOrder(t *testing.T) {
	eng := sim.NewEngine()
	k := NewKernel(eng)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		k.StartProcess(n, false)
	}
	got := k.Processes()
	if len(got) != 3 || got[0].Name() != "alpha" || got[1].Name() != "mid" || got[2].Name() != "zeta" {
		names := make([]string, 0, len(got))
		for _, p := range got {
			names = append(names, p.Name())
		}
		t.Errorf("order = %v", names)
	}
	k.TerminateProcess(k.Process("mid"))
	if got := k.Processes(); len(got) != 2 {
		t.Errorf("live processes = %d, want 2", len(got))
	}
}

func TestDuplicateProcessNamePanics(t *testing.T) {
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.StartProcess("App", false)
	defer func() {
		if recover() == nil {
			t.Error("duplicate StartProcess did not panic")
		}
	}()
	k.StartProcess("App", false)
}

func TestMeaningLookups(t *testing.T) {
	if m := Meaning(CatKernExec, TypeUnhandledException); !strings.Contains(m, "access violation") {
		t.Errorf("KERN-EXEC 3 meaning = %q", m)
	}
	if m := Meaning(CatPhoneApp, TypePhoneAppInternal); m != "not documented" {
		t.Errorf("Phone.app 2 meaning = %q", m)
	}
	if m := Meaning(Category("NOPE"), 99); m != "not documented" {
		t.Errorf("unknown meaning = %q", m)
	}
}

func TestPanicKeyFormat(t *testing.T) {
	if got := PanicKey(CatViewSrv, TypeViewSrvStarved); got != "ViewSrv 11" {
		t.Errorf("PanicKey = %q", got)
	}
}

func TestExecNilThreadIsNoop(t *testing.T) {
	k, _ := newTestKernel(t)
	ran := false
	if p := k.Exec(nil, func() { ran = true }); p != nil || ran {
		t.Error("Exec(nil) should be a no-op")
	}
}

func TestRaiseOutsideExecUsesUnknownContext(t *testing.T) {
	k, _ := newTestKernel(t)
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recover = %v", r)
		}
		if p.Process != "?" || p.Thread != "?" {
			t.Errorf("context = %s/%s, want ?/?", p.Process, p.Thread)
		}
	}()
	k.Raise(CatUser, TypeDesOverflow, "outside any Exec")
}

func TestStartProcessReusesDeadName(t *testing.T) {
	k, _ := newTestKernel(t)
	a := k.StartProcess("Reborn", false)
	k.TerminateProcess(a)
	b := k.StartProcess("Reborn", false)
	if b == a || !b.Alive() {
		t.Error("dead process name not reusable")
	}
	if k.Process("Reborn") != b {
		t.Error("kernel map not updated")
	}
}

func TestTerminateProcessIdempotent(t *testing.T) {
	k, proc := newTestKernel(t)
	k.TerminateProcess(proc)
	k.TerminateProcess(proc) // second call is harmless
	k.TerminateProcess(nil)  // nil is harmless
	if proc.Alive() {
		t.Error("process alive after terminate")
	}
}

func TestPanicErrorStringMentionsEverything(t *testing.T) {
	p := &Panic{Category: CatViewSrv, Type: 11, Reason: "starved", Process: "App", Thread: "App::Main"}
	s := p.Error()
	for _, want := range []string{"ViewSrv", "11", "App", "starved"} {
		if !strings.Contains(s, want) {
			t.Errorf("Error() = %q missing %q", s, want)
		}
	}
}
