package symbos

import (
	"fmt"
	"sort"

	"symfail/internal/sim"
)

// PanicHandler is the kernel's recovery policy hook. The device layer
// installs one to decide, per panic, whether to terminate the offending
// application, reboot the phone, or freeze (section 2: "information
// associated with a panic is delivered to the kernel, which decides on the
// recovery action"). Handlers must not re-enter the kernel synchronously;
// they should record the panic and schedule any recovery via the engine.
//
// When no handler is installed the kernel applies the default policy:
// terminate the panicking process.
type PanicHandler func(*Panic, *Process)

// Kernel is one booted instance of the simulated OS. The device layer
// creates a fresh Kernel on every boot; freezing the phone halts the kernel
// so that nothing (including the logger's heartbeat) runs until reboot.
type Kernel struct {
	eng     *sim.Engine
	procs   map[string]*Process
	depth   int // Execs running: a Raise at depth 0 has no thread context
	rdebug  []func(*Panic)
	handler PanicHandler
	halted  bool

	// ViewSrvTimeout is how long a single RunL may monopolise an
	// active scheduler before the View Server declares the application
	// unresponsive (ViewSrv 11). The real server uses ~10 s.
	ViewSrvTimeout sim.Duration

	panicsRaised int
}

// NewKernel boots a kernel on the given engine.
func NewKernel(eng *sim.Engine) *Kernel {
	return &Kernel{
		eng:            eng,
		procs:          make(map[string]*Process),
		ViewSrvTimeout: 10e9, // 10 s in nanoseconds
	}
}

// Engine returns the discrete-event engine driving this kernel.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Halted reports whether the kernel has been frozen.
func (k *Kernel) Halted() bool { return k.halted }

// Halt freezes the kernel: every subsequent Exec becomes a no-op, which is
// exactly what a phone freeze looks like from software (section 4: "the
// device's output becomes constant and the device does not respond").
func (k *Kernel) Halt() { k.halted = true }

// PanicsRaised returns the number of panics dispatched since boot.
func (k *Kernel) PanicsRaised() int { return k.panicsRaised }

// SetPanicHandler installs the recovery policy hook.
func (k *Kernel) SetPanicHandler(h PanicHandler) { k.handler = h }

// SubscribeRDebug registers a callback invoked for every panic delivered to
// the kernel. This models the RDebug notification service of the Kernel
// Server that the paper's Panic Detector exploits (section 5.1).
func (k *Kernel) SubscribeRDebug(fn func(*Panic)) { k.rdebug = append(k.rdebug, fn) }

// StartProcess creates a process with a single main thread. system marks
// critical system servers, whose panics the paper observes to reboot the
// phone rather than merely terminating an application.
func (k *Kernel) StartProcess(name string, system bool) *Process {
	if old, ok := k.procs[name]; ok && old.alive {
		panic(fmt.Sprintf("symbos: duplicate process %q", name))
	}
	p := &Process{
		name:   name,
		system: system,
		alive:  true,
		kernel: k,
		heap:   Heap{kernel: k, limit: defaultHeapLimit},
	}
	p.main = Thread{proc: p, cleanupInstalled: true}
	k.procs[name] = p
	return p
}

// Process returns the named process, or nil.
func (k *Kernel) Process(name string) *Process { return k.procs[name] }

// Processes returns all live processes in deterministic (name) order.
func (k *Kernel) Processes() []*Process {
	names := make([]string, 0, len(k.procs))
	for n, p := range k.procs {
		if p.alive {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Process, 0, len(names))
	for _, n := range names {
		out = append(out, k.procs[n])
	}
	return out
}

// TerminateProcess kills a process: its threads stop, its pending active
// object completions are discarded, and it disappears from the running set.
func (k *Kernel) TerminateProcess(p *Process) {
	if p == nil || !p.alive {
		return
	}
	p.alive = false
	p.main.shutdown()
	for _, t := range p.threads {
		t.shutdown()
	}
}

// Exec runs fn in the context of thread t, establishing the panic boundary:
// any Symbian panic raised inside fn is recovered here, delivered to the
// kernel (RDebug subscribers first, then the recovery policy), and returned.
// A nil return means fn completed without panicking. Exec on a halted
// kernel or a dead process/thread is a no-op.
func (k *Kernel) Exec(t *Thread, fn func()) (p *Panic) {
	if k.halted || t == nil || !t.proc.alive {
		return nil
	}
	k.depth++
	defer k.boundary(t, &p)
	fn()
	return nil
}

// serve runs a server's handler on m in the context of thread t, behind
// the same panic boundary as Exec.
func (k *Kernel) serve(t *Thread, h Handler, m *Message) (p *Panic) {
	if k.halted || t == nil || !t.proc.alive {
		return nil
	}
	k.depth++
	defer k.boundary(t, &p)
	h(m)
	return nil
}

// boundary closes an Exec (or serve) of thread t: it recovers a Symbian
// panic raised inside, gives it t's context, delivers it and stores it in
// *p. The innermost boundary recovers every panic raised inside it, so t
// is the thread that raised it. Any other panic is a genuine Go bug in
// the simulator and goes on unmasked.
func (k *Kernel) boundary(t *Thread, p **Panic) {
	k.depth--
	r := recover()
	if r == nil {
		return
	}
	pan, ok := r.(*Panic)
	if !ok {
		lv, isLeave := r.(leave)
		if !isLeave {
			panic(r)
		}
		// A leave escaping all traps means the thread had no trap
		// handler installed (E32USER-CBase 69 in practice).
		pan = &Panic{
			Category: CatE32UserCBase,
			Type:     TypeNoTrapHandler,
			Reason:   "leave " + ErrName(lv.code) + " with no trap handler installed",
			Time:     k.eng.Now(),
		}
	}
	if pan.Process == "" { // not a Raise outside any Exec, which reads "?"
		pan.Process, pan.Thread, pan.System = t.proc.name, t.Name(), t.proc.system
	}
	k.dispatch(pan)
	*p = pan
}

// Raise signals a panic from the currently executing thread. It must be
// called from inside an Exec context; the surrounding Exec recovers it and
// fills in the thread. Outside any Exec the context reads "?".
func (k *Kernel) Raise(cat Category, typ int, reason string) {
	p := &Panic{
		Category: cat,
		Type:     typ,
		Reason:   reason,
		Time:     k.eng.Now(),
	}
	if k.depth == 0 {
		p.Process = "?"
		p.Thread = "?"
	}
	panic(p)
}

// dispatch delivers a recovered panic: RDebug subscribers see it first (the
// Panic Detector), then the recovery policy decides what happens.
func (k *Kernel) dispatch(p *Panic) {
	k.panicsRaised++
	for _, fn := range k.rdebug {
		fn(p)
	}
	if k.handler != nil {
		k.handler(p, k.procs[p.Process])
		return
	}
	if proc := k.procs[p.Process]; proc != nil {
		k.TerminateProcess(proc)
	}
}
