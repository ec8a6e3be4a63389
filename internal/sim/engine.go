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

// eventNode is the engine-owned storage behind an Event handle. Nodes are
// pooled on a per-engine free list: once an event fires or is cancelled its
// node is recycled for the next Schedule, so the steady-state event cycle
// allocates nothing. The generation counter is what keeps recycling safe —
// it is bumped exactly when the node is released, so every handle ever
// issued for a previous incarnation goes stale atomically.
type eventNode struct {
	when  Time
	seq   uint64 // tie-break so equal-time events fire in schedule order
	gen   uint64 // incarnation; Event handles capture it at issue time
	fn    func()
	label string

	// Intrusive links. In the wheel the node sits on exactly one doubly
	// linked list (a slot, the ready list, or the overflow level); on the
	// free list only next is used. The reference heap (a test oracle) uses
	// heapIndex.
	next, prev *eventNode
	home       int8 // one of homeFree..homeOverflow
	lvl, slot  int8 // wheel slot coordinates when home == homeSlot
	heapIndex  int32
}

// Node homes.
const (
	homeFree int8 = iota
	homeReady
	homeSlot
	homeOverflow
	homeHeap
)

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a value: copy it freely, compare it to the zero
// Event to mean "no event". The handle stays valid forever — once the event
// fires or is cancelled the handle merely reports Pending() == false and
// Cancel becomes a no-op, even though the engine has long recycled the
// underlying node for another event (the generation captured at scheduling
// time can never match a recycled node again).
type Event struct {
	n     *eventNode
	gen   uint64
	when  Time
	label string
}

// When returns the instant the event is (or was) scheduled for.
func (e Event) When() Time { return e.when }

// Label returns the diagnostic label given at scheduling time.
func (e Event) Label() string { return e.label }

// Pending reports whether the event is still waiting to fire.
func (e Event) Pending() bool { return e.n != nil && e.n.gen == e.gen }

// eventQueue is the contract between the engine and its pending-event
// store. Two implementations exist: the hierarchical timing wheel (the
// default — O(1) schedule and amortised O(1) pop with small per-slot
// sorts) and the binary heap retained as the differential-testing
// reference. Both must fire events in exactly (when, seq) order; the
// wheel-vs-heap property and fuzz tests hold them to the byte.
type eventQueue interface {
	// Len returns the number of pending events.
	Len() int
	// Schedule inserts a node (when >= now holds; the engine clamps).
	// now lets an implementation resync its cursor after idle gaps.
	Schedule(n *eventNode, now Time)
	// Remove unlinks a pending node (the node is guaranteed pending).
	Remove(n *eventNode)
	// PopMin removes and returns the minimum (when, seq) node, or nil.
	PopMin() *eventNode
	// PeekWhen returns the minimum pending when. It may advance internal
	// cursors but must not change which events are pending or their order.
	PeekWhen() (Time, bool)
	// name labels the implementation for diagnostics.
	name() string
}

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
// The single-goroutine contract is also what makes the event pool safe:
// nodes recycled by this engine can only ever be re-issued by this engine,
// on this goroutine, so a handle's generation check is race-free.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
	free    *eventNode
}

// NewEngine returns an engine whose clock reads Epoch, backed by the
// hierarchical timing wheel.
func NewEngine() *Engine {
	return &Engine{queue: newWheel()}
}

// newEngineWithQueue builds an engine over an explicit queue implementation
// (the differential tests drive a heap-backed engine against the wheel).
func newEngineWithQueue(q eventQueue) *Engine {
	return &Engine{queue: q}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.queue.Len() }

// alloc takes a node from the free list, or makes one.
func (e *Engine) alloc() *eventNode {
	n := e.free
	if n == nil {
		return &eventNode{}
	}
	e.free = n.next
	n.next = nil
	return n
}

// release recycles a node whose event fired or was cancelled. Bumping the
// generation here is the single point that invalidates every outstanding
// handle to the old incarnation.
func (e *Engine) release(n *eventNode) {
	n.gen++
	n.fn = nil
	n.label = ""
	n.prev = nil
	n.home = homeFree
	n.next = e.free
	e.free = n
}

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// is an error in the model, so it fires immediately at the current time
// instead of silently rewinding the clock.
func (e *Engine) At(t Time, label string, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	n := e.alloc()
	n.when = t
	n.seq = e.seq
	n.fn = fn
	n.label = label
	e.seq++
	e.queue.Schedule(n, e.now)
	return Event{n: n, gen: n.gen, when: t, label: label}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, label string, fn func()) Event {
	return e.At(e.now.Add(d), label, fn)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op — the handle's generation no longer matches the node's,
// however the node has been recycled since. It reports whether the event
// was actually cancelled.
func (e *Engine) Cancel(ev Event) bool {
	if ev.n == nil || ev.n.gen != ev.gen {
		return false
	}
	e.queue.Remove(ev.n)
	e.release(ev.n)
	return true
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	n := e.queue.PopMin()
	if n == nil {
		return false
	}
	e.now = n.when
	e.fired++
	fn := n.fn
	// Release before running so a self-re-arming callback (the dominant
	// workload shape: heartbeats, periodic uploads) reuses this very node.
	e.release(n)
	fn()
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
		next, ok := e.queue.PeekWhen()
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
	return fmt.Sprintf("engine{now=%s pending=%d fired=%d queue=%s}",
		e.now, e.queue.Len(), e.fired, e.queue.name())
}
