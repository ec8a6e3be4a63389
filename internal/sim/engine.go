package sim

import (
	"errors"
	"fmt"
	"time"
)

// Duration aliases time.Duration so that sim-facing code can express delays
// without importing both packages.
type Duration = time.Duration

// ErrStopped is returned by Engine.Run when Stop was called before the run
// limit was reached.
var ErrStopped = errors.New("sim: engine stopped")

// eventNode is the engine-owned storage behind an Event handle. Nodes live
// in one per-engine arena and link to each other by index, so the event hot
// path writes no pointer and pays no GC write barrier while the collector
// marks. Index 0 means "no node". A node whose event fired or was cancelled
// goes on the arena's free list and serves the next schedule, so the
// steady-state event cycle allocates nothing. The generation counter keeps
// recycling safe: it is bumped exactly when the node is released, so every
// handle issued for an earlier incarnation goes stale at once.
type eventNode struct {
	when Time
	seq  uint64 // tie-break so equal-time events fire in schedule order
	gen  uint64 // incarnation; Event handles capture it at issue time

	// Intrusive links. In the wheel the node sits on exactly one doubly
	// linked list (a slot, the ready list, or the overflow list); on the
	// free list only next is used.
	next, prev int32
	home       int8 // one of homeFree..homeOverflow
	lvl, slot  int8 // wheel slot coordinates when home == homeSlot
}

// Node homes.
const (
	homeFree int8 = iota
	homeReady
	homeSlot
	homeOverflow
)

// arena holds an engine's event nodes and, in a parallel slice, their
// callbacks. The callbacks are the only pointers: a slot is written once
// per schedule and cleared when its event fires or is cancelled, so a spent
// closure, and whatever it captured, is garbage at once. Nothing is
// allocated until the first schedule.
type arena struct {
	nodes []eventNode // nodes[0] is the "no node" sentinel
	fns   []func()
	free  int32 // head of the free list; 0 when it is empty
	seq   uint64
}

// add fills a node from the free list, or a new one, for an event at when.
func (a *arena) add(when Time, fn func()) int32 {
	i := a.free
	if i != 0 {
		a.free = a.nodes[i].next
	} else {
		if len(a.nodes) == 0 {
			a.nodes = append(a.nodes, eventNode{})
			a.fns = append(a.fns, nil)
		}
		i = int32(len(a.nodes))
		a.nodes = append(a.nodes, eventNode{})
		a.fns = append(a.fns, nil)
	}
	n := &a.nodes[i]
	n.when, n.seq = when, a.seq
	a.seq++
	a.fns[i] = fn
	return i
}

// handle is the Event for the node's current incarnation.
func (a *arena) handle(i int32) Event {
	return Event{index: i, gen: a.nodes[i].gen, when: a.nodes[i].when}
}

// pending reports whether ev's incarnation is still waiting to fire.
func (a *arena) pending(ev Event) bool {
	return ev.index != 0 && a.nodes[ev.index].gen == ev.gen
}

// release recycles a node whose event fired or was cancelled and returns
// its callback. Bumping the generation here is the single point that
// invalidates every outstanding handle to the old incarnation.
func (a *arena) release(i int32) func() {
	fn := a.fns[i]
	a.fns[i] = nil
	n := &a.nodes[i]
	n.gen++
	n.home = homeFree
	n.prev = 0
	n.next = a.free
	a.free = i
	return fn
}

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a value that holds no pointer: copy it freely,
// compare it to the zero Event to mean "no event". The handle stays valid
// forever. Once the event fires or is cancelled, Engine.IsPending reports
// false for it and Cancel becomes a no-op, even though the engine has long
// recycled the underlying node for another event (the generation captured
// at scheduling time can never match a recycled node again).
type Event struct {
	index int32
	gen   uint64
	when  Time
}

// When returns the instant the event is (or was) scheduled for.
func (e Event) When() Time { return e.when }

// Engine is a single-threaded discrete-event scheduler.
//
// Ownership contract: an Engine and everything scheduled on it belong to
// exactly one goroutine at a time. The simulation is deterministic
// precisely because a single goroutine advances each engine; nothing in
// the Engine is locked, and nothing may be. Parallelism is achieved by
// sharding, never by sharing: give each independent shard of the world its
// own Engine (and its own RNG streams — see Rand.Split) and run whole
// shards on separate workers, e.g. via RunShards. Two shards must not
// share an engine, schedule onto each other's engines, or touch each
// other's state; cross-shard results are combined only after the shards
// finish, through an order-independent merge (see internal/collect).
//
// The single-goroutine contract is also what makes the node arena safe:
// nodes recycled by this engine can only ever be re-issued by this engine,
// on this goroutine, so a handle's generation check is race-free.
type Engine struct {
	now     Time
	stopped bool
	fired   uint64
	events  arena
	queue   wheel // held by value and called directly: no interface call per event
}

// NewEngine returns an engine whose clock reads Epoch, backed by the
// hierarchical timing wheel.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.queue.count }

// IsPending reports whether ev is still waiting to fire.
func (e *Engine) IsPending(ev Event) bool { return e.events.pending(ev) }

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// is an error in the model, so it fires immediately at the current time
// instead of silently rewinding the clock.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	i := e.events.add(t, fn)
	e.queue.schedule(e.events.nodes, i, e.now)
	return e.events.handle(i)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Event {
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op — the handle's generation no longer matches the node's,
// however the node has been recycled since. It reports whether the event
// was actually cancelled.
func (e *Engine) Cancel(ev Event) bool {
	if !e.events.pending(ev) {
		return false
	}
	e.queue.remove(e.events.nodes, ev.index)
	e.events.release(ev.index)
	return true
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	i := e.queue.popMin(e.events.nodes)
	if i == 0 {
		return false
	}
	e.now = e.events.nodes[i].when
	e.fired++
	// Release before running so a self-re-arming callback (the dominant
	// workload shape: heartbeats, periodic uploads) reuses this very node.
	e.events.release(i)()
	return true
}

// Run executes events until the queue drains, the clock passes until, or
// Stop is called. The clock is left at min(until, last event time); if the
// queue drained first, the clock is advanced to until so that callers can
// reason about "the simulation covered [0, until)".
func (e *Engine) Run(until Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		next, ok := e.queue.peekWhen(e.events.nodes)
		if !ok {
			if e.now < until {
				e.now = until
			}
			return nil
		}
		if next > until {
			e.now = until
			return nil
		}
		e.Step()
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (e *Engine) RunAll() error {
	e.stopped = false
	for e.Step() {
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}

// Stop halts a Run in progress after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// String summarises engine state for diagnostics.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{now=%s pending=%d fired=%d queue=wheel}",
		e.now, e.queue.count, e.fired)
}
