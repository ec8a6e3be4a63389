package symbos

import (
	"testing"
	"time"

	"symfail/internal/sim"
)

func TestActiveObjectRunsOnCompletion(t *testing.T) {
	k, proc := newTestKernel(t)
	var got []int
	ao := proc.Main().NewActiveObject("worker", 0, func(code int) {
		got = append(got, code)
	})
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != KErrNone {
		t.Errorf("RunL calls = %v", got)
	}
	if ao.Runs() != 1 {
		t.Errorf("Runs = %d", ao.Runs())
	}
	if ao.IsActive() {
		t.Error("still active after dispatch")
	}
}

func TestActiveSchedulerPriorityOrder(t *testing.T) {
	k, proc := newTestKernel(t)
	var order []string
	lo := proc.Main().NewActiveObject("lo", 1, func(int) { order = append(order, "lo") })
	hi := proc.Main().NewActiveObject("hi", 9, func(int) { order = append(order, "hi") })
	k.Exec(proc.Main(), func() {
		lo.SetActive()
		hi.SetActive()
	})
	// Complete low first; the scheduler must still run high first because
	// both completions are pending when dispatch happens.
	lo.Complete(KErrNone)
	hi.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Errorf("dispatch order = %v", order)
	}
}

func TestStraySignalPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	ao := proc.Main().NewActiveObject("stray", 0, func(int) {})
	// Complete without SetActive: a stray signal.
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(panics) != 1 || panics[0] != "E32USER-CBase 46" {
		t.Errorf("panics = %v, want [E32USER-CBase 46]", panics)
	}
}

func TestRunLLeaveWithoutRunErrorPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	ao := proc.Main().NewActiveObject("leaver", 0, func(int) {
		proc.Main().Leave(KErrGeneral)
	})
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(panics) != 1 || panics[0] != "E32USER-CBase 47" {
		t.Errorf("panics = %v, want [E32USER-CBase 47]", panics)
	}
}

func TestRunLLeaveHandledByRunError(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	handled := 0
	ao := proc.Main().NewActiveObject("leaver", 0, func(int) {
		proc.Main().Leave(KErrNoMemory)
	})
	ao.SetRunError(func(code int) bool {
		if code == KErrNoMemory {
			handled++
			return true
		}
		return false
	})
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Errorf("RunError handled %d times", handled)
	}
	if len(panics) != 0 {
		t.Errorf("unexpected panics %v", panics)
	}
}

func TestViewSrvStarvationPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	proc.Main().WatchViewSrv()
	ao := proc.Main().NewActiveObject("hog", 0, func(int) {})
	ao.SetCost(30 * time.Second) // beyond the 10 s ViewSrv timeout
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(panics) != 1 || panics[0] != "ViewSrv 11" {
		t.Errorf("panics = %v, want [ViewSrv 11]", panics)
	}
}

func TestViewSrvIgnoresUnwatchedThreads(t *testing.T) {
	k, proc := newTestKernel(t)
	var panics []string
	k.SubscribeRDebug(func(p *Panic) { panics = append(panics, p.Key()) })
	ao := proc.Main().NewActiveObject("hog", 0, func(int) {})
	ao.SetCost(30 * time.Second)
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(panics) != 0 {
		t.Errorf("panics = %v on unwatched thread", panics)
	}
}

func TestCancelPreventsDispatch(t *testing.T) {
	k, proc := newTestKernel(t)
	runs := 0
	ao := proc.Main().NewActiveObject("c", 0, func(int) { runs++ })
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Cancel()
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Errorf("RunL ran %d times after Cancel", runs)
	}
}

func TestTimerFiresAfterDelay(t *testing.T) {
	k, proc := newTestKernel(t)
	var firedAt sim.Time = sim.Never
	ao := proc.Main().NewActiveObject("tick", 0, func(int) { firedAt = k.Now() })
	tm := NewTimer(ao)
	k.Exec(proc.Main(), func() { tm.After(5 * time.Second) })
	if !tm.Outstanding() {
		t.Error("timer not outstanding after After")
	}
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if firedAt != sim.Epoch.Add(5*time.Second) {
		t.Errorf("fired at %v", firedAt)
	}
	if tm.Outstanding() {
		t.Error("timer still outstanding after firing")
	}
}

func TestTimerDoubleArmPanics(t *testing.T) {
	k, proc := newTestKernel(t)
	ao := proc.Main().NewActiveObject("tick", 0, func(int) {})
	tm := NewTimer(ao)
	p := k.Exec(proc.Main(), func() {
		tm.After(time.Second)
		tm.After(time.Second)
	})
	if p == nil || p.Key() != "KERN-EXEC 15" {
		t.Fatalf("panic = %v, want KERN-EXEC 15", p)
	}
}

func TestTimerCancel(t *testing.T) {
	k, proc := newTestKernel(t)
	runs := 0
	ao := proc.Main().NewActiveObject("tick", 0, func(int) { runs++ })
	tm := NewTimer(ao)
	k.Exec(proc.Main(), func() { tm.After(time.Second) })
	tm.Cancel()
	tm.Cancel() // idempotent
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Errorf("cancelled timer ran %d times", runs)
	}
	// Re-arming after cancel must not raise KERN-EXEC 15.
	k.Exec(proc.Main(), func() { tm.After(time.Second) })
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("re-armed timer ran %d times", runs)
	}
}

func TestPeriodicHeartbeatPattern(t *testing.T) {
	// The logger's heartbeat is an AO re-arming its own timer; make sure
	// the pattern works for many iterations.
	k, proc := newTestKernel(t)
	beats := 0
	var ao *ActiveObject
	var tm *Timer
	ao = proc.Main().NewActiveObject("heartbeat", 0, func(int) {
		beats++
		tm.After(30 * time.Second)
	})
	tm = NewTimer(ao)
	k.Exec(proc.Main(), func() { tm.After(30 * time.Second) })
	if err := k.Engine().Run(sim.Epoch.Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if beats != 20 {
		t.Errorf("beats = %d, want 20", beats)
	}
}

func TestTerminatedProcessStopsDispatch(t *testing.T) {
	k, proc := newTestKernel(t)
	runs := 0
	ao := proc.Main().NewActiveObject("w", 0, func(int) { runs++ })
	k.Exec(proc.Main(), func() { ao.SetActive() })
	ao.Complete(KErrNone)
	k.TerminateProcess(proc)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Errorf("dead process dispatched %d RunLs", runs)
	}
	// Completing after death must be harmless.
	ao.Complete(KErrNone)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Errorf("post-mortem completion dispatched %d RunLs", runs)
	}
}

func TestSchedulerLen(t *testing.T) {
	_, proc := newTestKernel(t)
	proc.Main().NewActiveObject("a", 0, func(int) {})
	proc.Main().NewActiveObject("b", 0, func(int) {})
	if proc.Main().Scheduler().Len() != 2 {
		t.Errorf("Len = %d", proc.Main().Scheduler().Len())
	}
	if proc.Main().Scheduler().Thread() != proc.Main() {
		t.Error("scheduler thread mismatch")
	}
}
