package symbos

import (
	"testing"

	"symfail/internal/sim"
)

// A process builds its object index, active scheduler and main-thread name
// on first use and is never reused: these tests pin that a relaunch within
// one boot is a fresh process, and that nothing aimed at a dead
// incarnation — a queued wake, an async request, an old session — reaches
// the new one.

// checkFresh asserts p looks like a process nobody has used yet.
func checkFresh(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	if n := p.HandleCount(); n != 0 {
		t.Errorf("%s: %d handles at launch", p.Name(), n)
	}
	if h := p.Heap(); h.LiveCells() != 0 || h.Allocated() != 0 {
		t.Errorf("%s: heap holds %d cells, %d bytes at launch", p.Name(), h.LiveCells(), h.Allocated())
	}
	if n := p.Main().Scheduler().Len(); n != 0 {
		t.Errorf("%s: %d active objects at launch", p.Name(), n)
	}
	if n := p.Main().CleanupDepth(); n != 0 {
		t.Errorf("%s: cleanup depth %d at launch", p.Name(), n)
	}
	k.Exec(p.Main(), func() {
		if h := p.OpenObject("mutex", "m"); h != 1 {
			t.Errorf("%s: first handle %d, want 1", p.Name(), h)
		}
		p.Main().PushL(func() {}) // the cleanup stack is installed
		p.Main().Pop(1)
	})
	if got, want := p.Main().Name(), p.Name()+"::Main"; got != want {
		t.Errorf("main thread name %q, want %q", got, want)
	}
}

// useProcess leaves state behind in p: handles, heap cells, a cleanup
// item and an active object.
func useProcess(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	k.Exec(p.Main(), func() {
		p.OpenObject("mutex", "a")
		p.OpenObject("mutex", "b")
		p.Heap().AllocL(p.Main(), 64, "leak")
		p.Main().NewActiveObject("poll", 1, func(int) {})
	})
}

func TestRelaunchAfterKillIsFresh(t *testing.T) {
	k := NewKernel(sim.NewEngine())
	k.SetPanicHandler(func(*Panic, *Process) {})
	old := k.StartProcess("App", false)
	checkFresh(t, k, old)
	useProcess(t, k, old)
	k.TerminateProcess(old)
	p := k.StartProcess("App", false)
	if p == old {
		t.Fatal("a relaunch reused the dead process")
	}
	checkFresh(t, k, p)
}

func TestRelaunchAfterPanicIsFresh(t *testing.T) {
	k := NewKernel(sim.NewEngine()) // default policy: a panic kills the process
	old := k.StartProcess("App", false)
	useProcess(t, k, old)
	if pan := k.Exec(old.Main(), func() { NullPtr(k).Deref() }); pan == nil || old.Alive() {
		t.Fatalf("the panic did not kill the process (panic %v)", pan)
	}
	p := k.StartProcess("App", false)
	checkFresh(t, k, p)
}

// TestWakeQueuedBeforeDeathStaysWithOldIncarnation completes an active
// object, kills its process before the scheduler wakes, and relaunches it
// with a pending active object of its own: the old wake runs nothing in
// either incarnation.
func TestWakeQueuedBeforeDeathStaysWithOldIncarnation(t *testing.T) {
	eng := sim.NewEngine()
	k := NewKernel(eng)
	old := k.StartProcess("App", false)
	oldRuns := 0
	oldAO := old.Main().NewActiveObject("old", 1, func(int) { oldRuns++ })
	oldAO.SetActive()
	oldAO.Complete(KErrNone) // the wake is queued
	k.TerminateProcess(old)
	p := k.StartProcess("App", false)
	newRuns := 0
	newAO := p.Main().NewActiveObject("new", 1, func(int) { newRuns++ })
	newAO.SetActive()
	if err := eng.Run(sim.Epoch.Add(sim.Duration(1e9))); err != nil {
		t.Fatal(err)
	}
	if oldRuns != 0 || newRuns != 0 {
		t.Errorf("RunL ran %d times in the dead incarnation and %d in the new one, want 0 and 0", oldRuns, newRuns)
	}
	if !newAO.IsActive() {
		t.Error("the old wake consumed the new incarnation's pending request")
	}
	if pan := k.PanicsRaised(); pan != 0 {
		t.Errorf("%d panics raised (a stray signal in the new incarnation?)", pan)
	}
}

// TestAsyncRequestAndSessionStayWithOldIncarnation sends an async request
// to an application's adopted server, kills the server process before the
// request is delivered and relaunches it with a new server: the request
// fails with KErrDisconnected, an old session stays disconnected, and the
// new server serves neither.
func TestAsyncRequestAndSessionStayWithOldIncarnation(t *testing.T) {
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.SetPanicHandler(func(*Panic, *Process) {})
	serve := func(m *Message) { m.Complete(KErrNone) }
	client := k.StartProcess("Client", false)
	oldSrv := AdoptServer(k.StartProcess("Svc", false), serve)
	sess := oldSrv.Connect(client.Main())
	code := 1
	ao := client.Main().NewActiveObject("reply", 1, func(c int) { code = c })
	k.Exec(client.Main(), func() { sess.SendAsync(1, "hello", ao) })
	k.TerminateProcess(oldSrv.Process())
	newSrv := AdoptServer(k.StartProcess("Svc", false), serve)
	if err := eng.Run(sim.Epoch.Add(sim.Duration(1e9))); err != nil {
		t.Fatal(err)
	}
	if code != KErrDisconnected {
		t.Errorf("the in-flight async request completed with %s, want KErrDisconnected", ErrName(code))
	}
	if sess.Connected() {
		t.Error("a session to the dead incarnation still reports Connected")
	}
	k.Exec(client.Main(), func() {
		if got := sess.SendReceive(1, "again"); got != KErrDisconnected {
			t.Errorf("SendReceive on the old session = %s, want KErrDisconnected", ErrName(got))
		}
	})
	if n := newSrv.Served(); n != 0 {
		t.Errorf("the new incarnation served %d requests meant for the old one", n)
	}
	if fresh := newSrv.Connect(client.Main()); !fresh.Connected() {
		t.Error("a session to the new incarnation is not connected")
	}
}

// TestPropertyResubscribeAfterFireAllocatesNothing: the Power Manager
// re-subscribes after every battery publication; the fired subscription
// is reused, and its slot on the bus's list too.
func TestPropertyResubscribeAfterFireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	eng := sim.NewEngine()
	k := NewKernel(eng)
	bus := NewPropertyBus(k)
	bus.Define(PropBatteryStatus, 0)
	p := k.StartProcess("PowerMgr", false)
	prop := bus.Attach(PropBatteryStatus)
	runs := 0
	ao := p.Main().NewActiveObject("power", 1, func(int) { runs++ })
	op := func() {
		prop.Subscribe(ao)
		bus.Set(PropBatteryStatus, 1)
		eng.Step()
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Errorf("re-subscribe after a publication: %.2f allocs, want 0", avg)
	}
	if want := 16 + 201; runs != want {
		t.Errorf("subscriber ran %d times, want %d", runs, want)
	}
}

// TestPropertyCancelledThenResubscribedFiresOnce: a cancelled
// subscription stays on the bus's list until the next publication, so it
// is never reused; the new subscription fires once.
func TestPropertyCancelledThenResubscribedFiresOnce(t *testing.T) {
	eng := sim.NewEngine()
	k := NewKernel(eng)
	bus := NewPropertyBus(k)
	bus.Define(PropCallState, 0)
	p := k.StartProcess("App", false)
	prop := bus.Attach(PropCallState)
	runs := 0
	ao := p.Main().NewActiveObject("call", 1, func(int) { runs++ })
	prop.Subscribe(ao)
	prop.Cancel()
	prop.Subscribe(ao)
	if subs := bus.subs[PropCallState]; len(subs) != 2 || subs[0] == subs[1] || !subs[0].cancelled {
		t.Fatalf("bus lists %d subscriptions; want the cancelled one and a new one", len(subs))
	}
	bus.Set(PropCallState, 1)
	if err := eng.Run(sim.Epoch.Add(sim.Duration(1e9))); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("subscriber ran %d times, want 1", runs)
	}
	if pan := k.PanicsRaised(); pan != 0 {
		t.Errorf("%d panics raised", pan)
	}
	bus.Set(PropCallState, 0) // nothing is subscribed any more
	if err := eng.Run(sim.Epoch.Add(sim.Duration(2e9))); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("after a second publication the subscriber ran %d times, want 1", runs)
	}
}
