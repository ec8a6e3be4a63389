package symbos

import "fmt"

// defaultHeapLimit is each process's heap quota in bytes. Symbian phones of
// the study era shipped with single-digit megabytes of RAM per application.
const defaultHeapLimit = 1 << 20

// Process is a Symbian process: an address space with one heap, an object
// index (handle table) and one or more threads.
//
// Applications are launched at every user activity, so a process is built
// lean: the heap and the main thread live inside it, and the object index,
// the thread's active scheduler and its name are built on first use. A
// relaunch always builds a new Process — a dead incarnation is never
// reused, so a wake, an async request or a session aimed at it can never
// reach its successor.
type Process struct {
	name    string
	system  bool
	alive   bool
	kernel  *Kernel
	heap    Heap
	objs    []*KObject // the object index, by handle; see index
	handles int        // live entries in objs
	nextH   Handle
	main    Thread
	threads []*Thread // spawned beyond the main thread
}

// Name returns the process name (the application name in the logs).
func (p *Process) Name() string { return p.name }

// System reports whether this is a critical system server process.
func (p *Process) System() bool { return p.system }

// Alive reports whether the process is still running.
func (p *Process) Alive() bool { return p.alive }

// Heap returns the process heap.
func (p *Process) Heap() *Heap { return &p.heap }

// Main returns the process's main thread.
func (p *Process) Main() *Thread { return &p.main }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kernel }

// SpawnThread adds a thread to the process. Threads come with an active
// scheduler (CActiveScheduler::Install, done at its first use) and an
// installed cleanup stack (CTrapCleanup::New), matching what well-formed
// Symbian code does first thing; faults may explicitly remove the cleanup
// stack.
func (p *Process) SpawnThread(name string) *Thread {
	t := &Thread{
		name:             name,
		proc:             p,
		cleanupInstalled: true,
	}
	p.threads = append(p.threads, t)
	return t
}

// Thread is a Symbian thread: the lower, preemptively scheduled level of
// the two-level multitasking model. Active Objects run on its active
// scheduler. The simulation does not model instruction-level preemption;
// it models what matters to the study — which panics are raised where, and
// how long handlers monopolise the scheduler.
type Thread struct {
	name             string // the main thread's is built by Name
	proc             *Process
	scheduler        *ActiveScheduler // built by Scheduler
	cleanup          []func()
	cleanupInstalled bool
	trapDepth        int
	viewSrvWatched   bool
}

// Name returns the thread name. The main thread's, "<process>::Main", is
// built at its first use: most launches never need it.
func (t *Thread) Name() string {
	if t.name == "" && t == &t.proc.main {
		t.name = t.proc.name + "::Main"
	}
	return t.name
}

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Scheduler returns the thread's active scheduler, installing it at first
// use (a thread that never runs an active object never builds one).
func (t *Thread) Scheduler() *ActiveScheduler {
	if t.scheduler == nil {
		t.scheduler = newActiveScheduler(t)
	}
	return t.scheduler
}

// WatchViewSrv marks the thread as hosting a View Server active object —
// i.e. it is a UI application the View Server monitors for responsiveness.
func (t *Thread) WatchViewSrv() { t.viewSrvWatched = true }

// DropCleanupStack removes the thread's trap cleanup (a modelled defect:
// the code path never called CTrapCleanup::New). The next PushL raises
// E32USER-CBase 69, as documented in Table 2.
func (t *Thread) DropCleanupStack() { t.cleanupInstalled = false }

// Trap executes fn under a trap harness (the TRAP macro). If fn leaves,
// Trap unwinds the cleanup stack to its depth at entry, destroying every
// item pushed inside the trap (this is how Symbian avoids leaks on error
// paths), and returns the leave code. Symbian panics are not caught — they
// propagate to the kernel's Exec boundary.
func (t *Thread) Trap(fn func()) (code int) {
	mark := len(t.cleanup)
	t.trapDepth++
	defer func() { t.trapDepth-- }()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		lv, ok := r.(leave)
		if !ok {
			panic(r)
		}
		t.unwindCleanup(mark)
		code = lv.code
	}()
	fn()
	return KErrNone
}

// Leave transfers control to the nearest enclosing trap with the given
// error code (User::Leave).
func (t *Thread) Leave(code int) {
	panic(leave{code: code})
}

// InTrap reports whether a trap harness is currently active.
func (t *Thread) InTrap() bool { return t.trapDepth > 0 }

// PushL pushes a cleanup item (CleanupStack::PushL). If the thread has no
// trap cleanup installed this raises E32USER-CBase 69.
func (t *Thread) PushL(destroy func()) {
	if !t.cleanupInstalled {
		t.proc.kernel.Raise(CatE32UserCBase, TypeNoTrapHandler,
			"cleanup stack used before CTrapCleanup::New()")
	}
	t.cleanup = append(t.cleanup, destroy)
}

// Pop removes the top n cleanup items without destroying them
// (CleanupStack::Pop).
func (t *Thread) Pop(n int) {
	if n < 0 || n > len(t.cleanup) {
		t.proc.kernel.Raise(CatE32UserCBase, TypeCBase91,
			fmt.Sprintf("cleanup stack pop of %d with depth %d", n, len(t.cleanup)))
	}
	t.cleanup = t.cleanup[:len(t.cleanup)-n]
}

// PopAndDestroy removes the top n cleanup items and runs their destructors
// (CleanupStack::PopAndDestroy).
func (t *Thread) PopAndDestroy(n int) {
	if n < 0 || n > len(t.cleanup) {
		t.proc.kernel.Raise(CatE32UserCBase, TypeCBase92,
			fmt.Sprintf("cleanup stack pop-and-destroy of %d with depth %d", n, len(t.cleanup)))
	}
	for i := 0; i < n; i++ {
		top := t.cleanup[len(t.cleanup)-1]
		t.cleanup = t.cleanup[:len(t.cleanup)-1]
		top()
	}
}

// CleanupDepth returns the number of items on the cleanup stack.
func (t *Thread) CleanupDepth() int { return len(t.cleanup) }

// unwindCleanup destroys items down to the given mark (leave processing).
func (t *Thread) unwindCleanup(mark int) {
	for len(t.cleanup) > mark {
		top := t.cleanup[len(t.cleanup)-1]
		t.cleanup = t.cleanup[:len(t.cleanup)-1]
		top()
	}
}
