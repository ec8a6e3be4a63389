package symbos

import (
	"fmt"

	"symfail/internal/sim"
)

// KRequestPending is the TRequestStatus sentinel for an outstanding request.
const KRequestPending = -0x80000001

// ActiveObject is the upper level of Symbian's two-level multitasking
// model: an event handler scheduled non-preemptively by its thread's
// active scheduler. RunL is the event handler; RunError handles leaves
// from RunL (returning true when handled).
type ActiveObject struct {
	name     string
	priority int
	thread   *Thread
	active   bool
	complete bool
	status   int
	runL     func(code int)
	runError func(code int) bool
	cost     sim.Duration
	dead     bool
	runs     uint64
}

// ActiveScheduler serialises the active objects of one thread. It is
// non-preemptive and event driven: a RunL that never yields starves every
// other active object on the thread — including the View Server's, which
// is the mechanism behind ViewSrv 11 panics.
type ActiveScheduler struct {
	thread *Thread
	aos    []*ActiveObject
	seq    int
	down   bool

	// Interned wake-up event: Complete schedules the same closure
	// thousands of times per simulated hour, so it is built once here
	// instead of once per completion.
	wakeFn     func()
	dispatchFn func()
}

// newActiveScheduler installs t's scheduler. One first used after its
// process died starts shut down, as if it had been there at the kill.
func newActiveScheduler(t *Thread) *ActiveScheduler {
	s := &ActiveScheduler{thread: t, down: !t.proc.alive}
	s.dispatchFn = s.dispatchOne
	s.wakeFn = func() {
		t.proc.kernel.Exec(t, s.dispatchFn)
	}
	return s
}

// Thread returns the owning thread.
func (s *ActiveScheduler) Thread() *Thread { return s.thread }

// Len returns the number of registered active objects.
func (s *ActiveScheduler) Len() int { return len(s.aos) }

// shutdown stops the thread's scheduler, if it was ever installed.
func (t *Thread) shutdown() {
	s := t.scheduler
	if s == nil {
		return
	}
	s.down = true
	for _, ao := range s.aos {
		ao.dead = true
	}
}

// NewActiveObject registers an active object on the thread's scheduler
// (CActiveScheduler::Add). Higher priority values run first.
func (t *Thread) NewActiveObject(name string, priority int, runL func(code int)) *ActiveObject {
	ao := &ActiveObject{
		name:     name,
		priority: priority,
		thread:   t,
		runL:     runL,
	}
	s := t.Scheduler()
	s.aos = append(s.aos, ao)
	return ao
}

// Name returns the active object's name.
func (ao *ActiveObject) Name() string { return ao.name }

// Runs returns how many times RunL has executed.
func (ao *ActiveObject) Runs() uint64 { return ao.runs }

// IsActive reports whether a request is outstanding (CActive::IsActive).
func (ao *ActiveObject) IsActive() bool { return ao.active }

// SetRunError installs the leave handler for RunL (CActive::RunError via
// the scheduler's Error()). Without one, a leaving RunL raises
// E32USER-CBase 47.
func (ao *ActiveObject) SetRunError(fn func(code int) bool) { ao.runError = fn }

// SetCost declares how much CPU time each RunL invocation monopolises the
// scheduler for. Costs beyond the kernel's ViewSrvTimeout trigger the View
// Server watchdog on watched threads.
func (ao *ActiveObject) SetCost(d sim.Duration) { ao.cost = d }

// SetActive marks the request as issued (CActive::SetActive).
func (ao *ActiveObject) SetActive() {
	ao.status = KRequestPending
	ao.active = true
}

// Cancel withdraws an outstanding request (CActive::Cancel).
func (ao *ActiveObject) Cancel() {
	ao.active = false
	ao.complete = false
	ao.status = KErrNone
}

// Complete signals the request with the given code, as a service provider
// does, and schedules the thread's active scheduler to dispatch. Completing
// an active object that never called SetActive produces a stray signal —
// E32USER-CBase 46 — when the scheduler wakes up.
func (ao *ActiveObject) Complete(code int) {
	if ao.dead {
		return
	}
	ao.status = code
	ao.complete = true
	s := ao.thread.scheduler
	ao.thread.proc.kernel.eng.After(0, s.wakeFn)
}

// dispatchOne runs the highest-priority completed active object, if any.
// It executes inside a kernel Exec context.
func (s *ActiveScheduler) dispatchOne() {
	if s.down {
		return
	}
	// Highest priority wins; registration order breaks ties (the first
	// maximum is exactly what the old stable descending sort picked, and
	// the argmax scan allocates nothing).
	var ao *ActiveObject
	for _, cand := range s.aos {
		if cand.complete && !cand.dead && (ao == nil || cand.priority > ao.priority) {
			ao = cand
		}
	}
	if ao == nil {
		return
	}
	ao.complete = false
	if !ao.active {
		s.thread.proc.kernel.Raise(CatE32UserCBase, TypeStraySignal,
			fmt.Sprintf("stray signal: completion for non-active object %q", ao.name))
	}
	ao.active = false
	code := ao.status
	ao.runs++
	k := s.thread.proc.kernel
	if leaveCode := s.thread.Trap(func() { ao.runL(code) }); leaveCode != KErrNone {
		handled := false
		if ao.runError != nil {
			handled = ao.runError(leaveCode)
		}
		if !handled {
			k.Raise(CatE32UserCBase, TypeRunLLeft,
				fmt.Sprintf("RunL of %q left with %s and Error() was not replaced", ao.name, ErrName(leaveCode)))
		}
	}
	if s.thread.viewSrvWatched && ao.cost > k.ViewSrvTimeout {
		k.Raise(CatViewSrv, TypeViewSrvStarved,
			fmt.Sprintf("event handler %q monopolised the active scheduler for %v", ao.name, ao.cost))
	}
}

// Timer is an asynchronous timer service (RTimer) bound to an active
// object. Requesting a timer event while one is outstanding raises
// KERN-EXEC 15.
type Timer struct {
	ao          *ActiveObject
	ev          sim.Event
	outstanding bool

	// Interned per-timer callback: heartbeat timers re-arm every
	// simulated period, so After must not rebuild it.
	fireFn func()
}

// NewTimer returns a timer completing into ao.
func NewTimer(ao *ActiveObject) *Timer {
	tm := &Timer{ao: ao}
	tm.fireFn = func() {
		tm.outstanding = false
		tm.ao.Complete(KErrNone)
	}
	return tm
}

// Outstanding reports whether a timer event is pending.
func (tm *Timer) Outstanding() bool { return tm.outstanding }

// After requests a timer event d from now (RTimer::After). The bound
// active object is marked active. A second request while the first is
// outstanding raises KERN-EXEC 15.
func (tm *Timer) After(d sim.Duration) {
	k := tm.ao.thread.proc.kernel
	if tm.outstanding {
		k.Raise(CatKernExec, TypeTimerInUse,
			fmt.Sprintf("timer event requested by %q while one is outstanding", tm.ao.name))
	}
	tm.outstanding = true
	tm.ao.SetActive()
	tm.ev = k.eng.After(d, tm.fireFn)
}

// Cancel withdraws the pending timer event (RTimer::Cancel).
func (tm *Timer) Cancel() {
	if !tm.outstanding {
		return
	}
	tm.outstanding = false
	tm.ao.thread.proc.kernel.eng.Cancel(tm.ev)
	tm.ao.Cancel()
}
