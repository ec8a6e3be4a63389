package phone

import (
	"testing"

	"symfail/internal/symbos"
)

// TestAppRelaunchIsFresh closes or crashes an application that left
// state behind — handles, a heap cell, an active object, a session to its
// in-process service — and relaunches it within the same boot: the new
// incarnation is a new process that starts empty, and the old session
// stays with the dead one.
func TestAppRelaunchIsFresh(t *testing.T) {
	d, eng := newTestDevice(t, 5, nil)
	eng.Step() // the enrolment boot
	k := d.Kernel()
	for _, kill := range []string{"CloseApp", "panic"} {
		a := d.LaunchApp(AppCamera)
		p := a.Proc()
		k.Exec(p.Main(), func() {
			p.OpenObject("mutex", "m")
			p.Heap().AllocL(p.Main(), 64, "leak")
			p.Main().NewActiveObject("poll", 1, func(int) {})
		})
		sess := a.service().Connect(d.shellApp().Proc().Main())
		switch kill {
		case "CloseApp":
			d.CloseApp(AppCamera)
		default:
			if pan := k.Exec(p.Main(), func() { symbos.NullPtr(k).Deref() }); pan == nil {
				t.Fatal("no panic raised")
			}
		}
		if a.Alive() {
			t.Fatalf("%s: the application survived", kill)
		}
		b := d.LaunchApp(AppCamera)
		q := b.Proc()
		if b == a || q == p || !b.Alive() {
			t.Fatalf("%s: the relaunch did not start a new process", kill)
		}
		if n := q.HandleCount(); n != 0 {
			t.Errorf("%s: %d handles after relaunch", kill, n)
		}
		if h := q.Heap(); h.LiveCells() != 0 || h.Allocated() != 0 {
			t.Errorf("%s: heap holds %d cells after relaunch", kill, h.LiveCells())
		}
		if n := q.Main().Scheduler().Len(); n != 0 {
			t.Errorf("%s: %d active objects after relaunch", kill, n)
		}
		if b.svc != nil {
			t.Errorf("%s: the relaunch adopted a server before any request", kill)
		}
		if sess.Connected() {
			t.Errorf("%s: a session to the dead incarnation is still connected", kill)
		}
		if pan := k.Exec(q.Main(), func() {
			if h := q.OpenObject("mutex", "m"); h != 1 {
				t.Errorf("%s: first handle after relaunch is %d, want 1", kill, h)
			}
			q.Main().PushL(func() {}) // raises E32USER-CBase 69 without a cleanup stack
			q.Main().Pop(1)
		}); pan != nil {
			t.Errorf("%s: first use of the relaunched application panicked: %s", kill, pan.Key())
		}
		if n := b.service().Served(); n != 0 {
			t.Errorf("%s: the new incarnation's service served %d requests", kill, n)
		}
		d.CloseApp(AppCamera)
	}
}
