package symbos

import (
	"testing"

	"symfail/internal/sim"
)

func TestSendReceiveRoundTrip(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "EchoSrv", true, func(m *Message) {
		m.Complete(len(m.Payload))
	})
	sess := srv.Connect(proc.Main())
	var code int
	k.Exec(proc.Main(), func() {
		code = sess.SendReceive(1, "hello")
	})
	if code != 5 {
		t.Errorf("code = %d, want 5", code)
	}
	if srv.Served() != 1 {
		t.Errorf("Served = %d", srv.Served())
	}
	if !sess.Connected() {
		t.Error("session should be connected")
	}
	if srv.Name() != "EchoSrv" || !srv.Process().System() {
		t.Error("server identity wrong")
	}
}

func TestServerPanicDisconnectsClient(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []*Panic
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p) })
	srv := NewServer(k, "BadSrv", true, func(m *Message) {
		NullPtr(k).Deref()
	})
	sess := srv.Connect(proc.Main())
	var code int
	k.Exec(proc.Main(), func() {
		code = sess.SendReceive(1, "x")
	})
	if code != KErrDisconnected {
		t.Errorf("client code = %s, want KErrDisconnected", ErrName(code))
	}
	if len(panics) != 1 || panics[0].Process != "BadSrv" || !panics[0].System {
		t.Errorf("panics = %v", panics)
	}
	if proc.Alive() != true {
		t.Error("client should survive a server panic")
	}
}

func TestSendReceiveToDeadServer(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "Gone", false, func(m *Message) { m.Complete(KErrNone) })
	sess := srv.Connect(proc.Main())
	k.TerminateProcess(srv.Process())
	var code int
	k.Exec(proc.Main(), func() { code = sess.SendReceive(1, "") })
	if code != KErrDisconnected {
		t.Errorf("code = %s", ErrName(code))
	}
	if sess.Connected() {
		t.Error("session to dead server reports connected")
	}
}

func TestSendAsyncCompletesActiveObject(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "Async", false, func(m *Message) { m.Complete(42) })
	sess := srv.Connect(proc.Main())
	var got int
	ao := proc.Main().NewActiveObject("reply", 0, func(code int) { got = code })
	k.Exec(proc.Main(), func() { sess.SendAsync(7, "p", ao) })
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("async code = %d", got)
	}
}

func TestSendAsyncServerPanicFailsRequest(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "AsyncBad", false, func(m *Message) {
		NullPtr(k).Deref()
	})
	sess := srv.Connect(proc.Main())
	var got = 1
	ao := proc.Main().NewActiveObject("reply", 0, func(code int) { got = code })
	k.Exec(proc.Main(), func() { sess.SendAsync(7, "p", ao) })
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != KErrDisconnected {
		t.Errorf("async code = %s", ErrName(got))
	}
}

func TestNullMessagePtrPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	srv := NewServer(k, "NullPtrSrv", false, func(m *Message) {
		m.NullifyPtr()
		m.Complete(KErrNone)
	})
	sess := srv.Connect(proc.Main())
	k.Exec(proc.Main(), func() { sess.SendReceive(1, "") })
	if len(panics) != 1 || panics[0] != "USER 70" {
		t.Errorf("panics = %v, want [USER 70]", panics)
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	srv := NewServer(k, "DoubleSrv", false, func(m *Message) {
		m.Complete(KErrNone)
		m.Complete(KErrNone)
	})
	sess := srv.Connect(proc.Main())
	k.Exec(proc.Main(), func() { sess.SendReceive(1, "") })
	if len(panics) != 1 || panics[0] != "USER 70" {
		t.Errorf("panics = %v", panics)
	}
}

func TestSessionCloseReleasesHandle(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "S", false, func(m *Message) { m.Complete(KErrNone) })
	sess := srv.Connect(proc.Main())
	before := proc.HandleCount()
	k.Exec(proc.Main(), func() { sess.Close() })
	if proc.HandleCount() != before-1 {
		t.Errorf("handle count %d -> %d", before, proc.HandleCount())
	}
	// Closing twice is a no-op, not a panic.
	if p := k.Exec(proc.Main(), func() { sess.Close() }); p != nil {
		t.Errorf("second Close panicked: %v", p)
	}
}

func TestSendReceiveOnClosedSessionPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "S2", false, func(m *Message) { m.Complete(KErrNone) })
	sess := srv.Connect(proc.Main())
	k.Exec(proc.Main(), func() { sess.Close() })
	p := k.Exec(proc.Main(), func() { sess.SendReceive(1, "") })
	if p == nil || p.Key() != "KERN-EXEC 0" {
		t.Fatalf("panic = %v, want KERN-EXEC 0", p)
	}
}

func TestCorruptSessionHandleRaisesKernSvr(t *testing.T) {
	k, proc := newTestKernel(t)
	srv := NewServer(k, "S3", false, func(m *Message) { m.Complete(KErrNone) })
	sess := srv.Connect(proc.Main())
	sess.CorruptSessionHandle()
	p := k.Exec(proc.Main(), func() { sess.Close() })
	if p == nil || p.Key() != "KERN-SVR 0" {
		t.Fatalf("panic = %v, want KERN-SVR 0", p)
	}
}

func TestAdoptServer(t *testing.T) {
	k, proc := newTestKernel(t)
	app := k.StartProcess("AppWithService", false)
	srv := AdoptServer(app, func(m *Message) { m.Complete(9) })
	sess := srv.Connect(proc.Main())
	var code int
	k.Exec(proc.Main(), func() { code = sess.SendReceive(0, "") })
	if code != 9 {
		t.Errorf("code = %d", code)
	}
}

func TestObjectIndexLifecycle(t *testing.T) {
	k, proc := newTestKernel(t)
	h := proc.OpenObject("mutex", "m1")
	k.Exec(proc.Main(), func() {
		o := proc.FindObject(h)
		if o.Name() != "m1" || o.Kind() != "mutex" || o.Refs() != 1 || !o.Open() {
			t.Errorf("object = %+v", o)
		}
	})
	dup := Handle(0)
	k.Exec(proc.Main(), func() { dup = proc.DuplicateHandle(h) })
	k.Exec(proc.Main(), func() { proc.CloseHandle(h) })
	k.Exec(proc.Main(), func() {
		if o := proc.FindObject(dup); !o.Open() {
			t.Error("object closed while a duplicate handle remains")
		}
	})
	k.Exec(proc.Main(), func() { proc.CloseHandle(dup) })
	p := k.Exec(proc.Main(), func() { proc.FindObject(dup) })
	if p == nil || p.Key() != "KERN-EXEC 0" {
		t.Fatalf("panic = %v, want KERN-EXEC 0", p)
	}
}

func TestFindCorruptHandleRaisesKernExec0(t *testing.T) {
	k, proc := newTestKernel(t)
	bad := proc.CorruptHandle()
	p := k.Exec(proc.Main(), func() { proc.FindObject(bad) })
	if p == nil || p.Key() != "KERN-EXEC 0" {
		t.Fatalf("panic = %v", p)
	}
}

func TestCloseCorruptHandleRaisesKernSvr0(t *testing.T) {
	k, proc := newTestKernel(t)
	bad := proc.CorruptHandle()
	p := k.Exec(proc.Main(), func() { proc.CloseHandle(bad) })
	if p == nil || p.Key() != "KERN-SVR 0" {
		t.Fatalf("panic = %v", p)
	}
}

func TestCObjectLifecycle(t *testing.T) {
	k, proc := newTestKernel(t)
	o := NewCObject(k, "conn")
	o.AddRef()
	if o.Refs() != 2 {
		t.Errorf("Refs = %d", o.Refs())
	}
	o.Release()
	o.Release()
	if !o.Dead() {
		t.Error("object should be dead after releasing all refs")
	}
	// Deleting with refs remaining panics E32USER-CBase 33.
	o2 := NewCObject(k, "leaky")
	o2.AddRef()
	p := k.Exec(proc.Main(), func() { o2.Delete() })
	if p == nil || p.Key() != "E32USER-CBase 33" {
		t.Fatalf("panic = %v, want E32USER-CBase 33", p)
	}
	// Deleting the sole reference is fine.
	o3 := NewCObject(k, "ok")
	if p := k.Exec(proc.Main(), func() { o3.Delete() }); p != nil {
		t.Fatalf("clean delete panicked: %v", p)
	}
	if !o3.Dead() {
		t.Error("o3 should be dead")
	}
	if o3.Name() != "ok" {
		t.Errorf("Name = %q", o3.Name())
	}
}

func TestControlsPanics(t *testing.T) {
	k, proc := newTestKernel(t)

	// Healthy list box usage.
	if p := k.Exec(proc.Main(), func() {
		lb := NewListBox(k)
		lb.AddItem("a")
		lb.AddItem("b")
		lb.SetCurrentItem(1)
		lb.Draw()
		if lb.Count() != 2 || lb.CurrentItem() != 1 {
			t.Error("list box state wrong")
		}
	}); p != nil {
		t.Fatalf("healthy listbox panicked: %v", p)
	}

	expectPanic(t, k, proc, CatEikonListbox, TypeListboxInvalidIndex, func() {
		lb := NewListBox(k)
		lb.AddItem("only")
		lb.SetCurrentItem(3)
	})
	expectPanic(t, k, proc, CatEikonListbox, TypeListboxNoView, func() {
		lb := NewListBox(k)
		lb.DetachView()
		lb.Draw()
	})
	expectPanic(t, k, proc, CatEikCoCtl, TypeEdwinCorrupt, func() {
		e := NewEdwin(k, 32)
		e.BeginInlineEdit()
		e.CorruptInlineState()
		e.CommitInlineEdit("hi")
	})
	if p := k.Exec(proc.Main(), func() {
		e := NewEdwin(k, 32)
		e.BeginInlineEdit()
		e.CommitInlineEdit("hi")
		if e.Text().String() != "hi" {
			t.Errorf("edwin text = %q", e.Text().String())
		}
		e.CommitInlineEdit("ignored") // no transaction open: no-op
		if e.Text().String() != "hi" {
			t.Error("commit without transaction mutated text")
		}
	}); p != nil {
		t.Fatalf("healthy edwin panicked: %v", p)
	}
	expectPanic(t, k, proc, CatMMFAudioClient, TypeVolumeOutOfRange, func() {
		NewAudioClient(k).SetVolume(10)
	})
	if p := k.Exec(proc.Main(), func() {
		a := NewAudioClient(k)
		a.SetVolume(9)
		if a.Volume() != 9 {
			t.Errorf("Volume = %d", a.Volume())
		}
	}); p != nil {
		t.Fatalf("healthy audio client panicked: %v", p)
	}
}

func TestErrNames(t *testing.T) {
	cases := map[int]string{
		KErrNone:         "KErrNone",
		KErrNotFound:     "KErrNotFound",
		KErrGeneral:      "KErrGeneral",
		KErrNoMemory:     "KErrNoMemory",
		KErrNotSupported: "KErrNotSupported",
		KErrArgument:     "KErrArgument",
		KErrOverflow:     "KErrOverflow",
		KErrInUse:        "KErrInUse",
		KErrServerBusy:   "KErrServerBusy",
		KErrDisconnected: "KErrDisconnected",
		-999:             "KErr(-999)",
	}
	for code, want := range cases {
		if got := ErrName(code); got != want {
			t.Errorf("ErrName(%d) = %q, want %q", code, got, want)
		}
	}
}

var _ = sim.Epoch // keep the sim import for helpers above
