package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// engineAPI is the scheduling surface shared by the production Engine
// (timing wheel) and the test-only heapEngine (reference binary heap).
// Every engine contract test below runs against both: they must be
// observably identical.
type engineAPI interface {
	At(t Time, fn func()) Event
	After(d Duration, fn func()) Event
	Cancel(ev Event) bool
	IsPending(ev Event) bool
	Step() bool
	Run(until Time) error
	RunAll() error
	Stop()
	Now() Time
	Fired() uint64
	Pending() int
	String() string
}

// queueImpls enumerates the event-queue implementations behind the engine.
var queueImpls = []struct {
	name string
	mk   func() engineAPI
}{
	{"wheel", func() engineAPI { return NewEngine() }},
	{"heap", func() engineAPI { return &heapEngine{} }},
}

func forEachQueue(t *testing.T, f func(t *testing.T, newEngine func() engineAPI)) {
	for _, impl := range queueImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) { f(t, impl.mk) })
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		var got []int
		e.After(3*time.Second, func() { got = append(got, 3) })
		e.After(1*time.Second, func() { got = append(got, 1) })
		e.After(2*time.Second, func() { got = append(got, 2) })
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		want := []int{1, 2, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
		if e.Now() != Epoch.Add(3*time.Second) {
			t.Errorf("Now = %v, want 3s", e.Now())
		}
	})
}

func TestEngineEqualTimesFireInScheduleOrder(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.At(Epoch.Add(time.Second), func() { got = append(got, i) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("tie order = %v", got)
			}
		}
	})
}

func TestEngineCancel(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		fired := false
		ev := e.After(time.Second, func() { fired = true })
		if !e.IsPending(ev) {
			t.Fatal("event should be pending")
		}
		if !e.Cancel(ev) {
			t.Fatal("Cancel should report success")
		}
		if e.Cancel(ev) {
			t.Fatal("double Cancel should report failure")
		}
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if fired {
			t.Error("cancelled event fired")
		}
	})
}

func TestEngineCancelMiddleOfQueue(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		var got []int
		evs := make([]Event, 0, 20)
		for i := 0; i < 20; i++ {
			i := i
			evs = append(evs, e.After(time.Duration(i)*time.Second, func() { got = append(got, i) }))
		}
		for i := 5; i < 15; i++ {
			e.Cancel(evs[i])
		}
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if len(got) != 10 {
			t.Fatalf("fired %d events, want 10 (%v)", len(got), got)
		}
		for _, v := range got {
			if v >= 5 && v < 15 {
				t.Fatalf("cancelled event %d fired", v)
			}
		}
	})
}

func TestEngineRunUntil(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			e.After(time.Minute, tick)
		}
		e.After(time.Minute, tick)
		if err := e.Run(Epoch.Add(time.Hour)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if count != 60 {
			t.Errorf("count = %d, want 60", count)
		}
		if e.Now() != Epoch.Add(time.Hour) {
			t.Errorf("Now = %v, want 1h", e.Now())
		}
	})
}

func TestEngineRunAdvancesToUntilWhenDrained(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		e.After(time.Second, func() {})
		if err := e.Run(Epoch.Add(time.Hour)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if e.Now() != Epoch.Add(time.Hour) {
			t.Errorf("Now = %v, want 1h", e.Now())
		}
	})
}

func TestEngineStop(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count == 5 {
				e.Stop()
			}
			e.After(time.Second, tick)
		}
		e.After(time.Second, tick)
		if err := e.RunAll(); err != ErrStopped {
			t.Fatalf("RunAll err = %v, want ErrStopped", err)
		}
		if count != 5 {
			t.Errorf("count = %d, want 5", count)
		}
	})
}

func TestEngineSchedulingInPastClampsToNow(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		var at Time = Never
		e.After(10*time.Second, func() {
			e.At(Epoch, func() { at = e.Now() })
		})
		if err := e.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if at != Epoch.Add(10*time.Second) {
			t.Errorf("past event fired at %v, want 10s", at)
		}
	})
}

func TestEngineStringNamesQueue(t *testing.T) {
	for _, impl := range queueImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			e := impl.mk()
			e.After(time.Second, func() {})
			s := e.String()
			if !strings.Contains(s, "pending=1") {
				t.Errorf("String = %q, want pending=1", s)
			}
			if !strings.Contains(s, "queue="+impl.name) {
				t.Errorf("String = %q, want queue=%s", s, impl.name)
			}
		})
	}
}

func TestEngineHandleOutlivesFire(t *testing.T) {
	// The value handle keeps reporting the original When after the node
	// behind it has been recycled for another event.
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		ev := e.After(time.Second, func() {})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if e.IsPending(ev) {
			t.Error("fired event still pending")
		}
		// Recycle the node.
		ev2 := e.After(time.Minute, func() {})
		if e.IsPending(ev) {
			t.Error("stale handle pending after node reuse")
		}
		if ev.When() != Epoch.Add(time.Second) {
			t.Errorf("stale handle When = %v", ev.When())
		}
		if e.Cancel(ev) {
			t.Error("Cancel through stale handle succeeded")
		}
		if !e.IsPending(ev2) {
			t.Error("live event not pending — stale Cancel hit the recycled node")
		}
	})
}

func TestTimeHelpers(t *testing.T) {
	tm := Epoch.Add(26*time.Hour + 3*time.Minute)
	if tm.Day() != 1 {
		t.Errorf("Day = %d, want 1", tm.Day())
	}
	if tod := tm.TimeOfDay(); tod != 2*time.Hour+3*time.Minute {
		t.Errorf("TimeOfDay = %v", tod)
	}
	if s := tm.String(); s != "1d02:03:00" {
		t.Errorf("String = %q", s)
	}
	if Never.String() != "never" {
		t.Errorf("Never.String = %q", Never.String())
	}
	if !Epoch.Before(tm) || !tm.After(Epoch) {
		t.Error("Before/After broken")
	}
	if tm.Sub(Epoch) != 26*time.Hour+3*time.Minute {
		t.Errorf("Sub = %v", tm.Sub(Epoch))
	}
}

func TestEngineRandomScheduleOrderProperty(t *testing.T) {
	// Property: whatever order events are scheduled in, they fire in
	// non-decreasing time order, and equal-time events fire in schedule
	// order.
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		f := func(seed uint64) bool {
			r := NewRand(seed)
			e := newEngine()
			type fired struct {
				at  Time
				seq int
			}
			var log []fired
			n := 50 + r.Intn(100)
			for i := 0; i < n; i++ {
				i := i
				at := Epoch.Add(time.Duration(r.Intn(20)) * time.Second)
				e.At(at, func() { log = append(log, fired{e.Now(), i}) })
			}
			if err := e.RunAll(); err != nil {
				return false
			}
			if len(log) != n {
				return false
			}
			for i := 1; i < len(log); i++ {
				if log[i].at < log[i-1].at {
					return false
				}
				if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

func TestEngineEventsScheduledDuringRunFire(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() engineAPI) {
		e := newEngine()
		depth := 0
		var recurse func()
		recurse = func() {
			depth++
			if depth < 10 {
				e.After(time.Second, recurse)
			}
		}
		e.After(time.Second, recurse)
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if depth != 10 {
			t.Errorf("depth = %d", depth)
		}
	})
}

// heapEngine is the Engine API over the binary-heap reference queue, in
// the same node arena. It predates the timing wheel and is kept here, in
// the tests, as the oracle the wheel is differentially tested against;
// its methods mirror Engine's line for line with the queue swapped.
type heapEngine struct {
	now     Time
	stopped bool
	fired   uint64
	events  arena
	queue   heapQueue
}

func (e *heapEngine) Now() Time               { return e.now }
func (e *heapEngine) Fired() uint64           { return e.fired }
func (e *heapEngine) Pending() int            { return len(e.queue.items) }
func (e *heapEngine) IsPending(ev Event) bool { return e.events.pending(ev) }
func (e *heapEngine) Stop()                   { e.stopped = true }

func (e *heapEngine) At(t Time, fn func()) Event {
	if t < e.now {
		t = e.now
	}
	i := e.events.add(t, fn)
	e.queue.schedule(e.events.nodes, i)
	return e.events.handle(i)
}

func (e *heapEngine) After(d Duration, fn func()) Event { return e.At(e.now.Add(d), fn) }

func (e *heapEngine) Cancel(ev Event) bool {
	if !e.events.pending(ev) {
		return false
	}
	e.queue.remove(e.events.nodes, ev.index)
	e.events.release(ev.index)
	return true
}

func (e *heapEngine) Step() bool {
	if len(e.queue.items) == 0 {
		return false
	}
	i := e.queue.items[0]
	e.queue.remove(e.events.nodes, i)
	e.now = e.events.nodes[i].when
	e.fired++
	e.events.release(i)()
	return true
}

func (e *heapEngine) Run(until Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		if len(e.queue.items) == 0 {
			if e.now < until {
				e.now = until
			}
			return nil
		}
		if e.events.nodes[e.queue.items[0]].when > until {
			e.now = until
			return nil
		}
		e.Step()
	}
}

func (e *heapEngine) RunAll() error {
	e.stopped = false
	for e.Step() {
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}

func (e *heapEngine) String() string {
	return fmt.Sprintf("engine{now=%s pending=%d fired=%d queue=heap}",
		e.now, len(e.queue.items), e.fired)
}

// heapQueue is a binary heap of arena node indices ordered by (when, seq).
// pos maps a node index to its place in items, so remove is O(log n).
type heapQueue struct {
	items []int32
	pos   []int32
}

func (q *heapQueue) less(ns []eventNode, i, j int) bool {
	return nodeLess(&ns[q.items[i]], &ns[q.items[j]])
}

func (q *heapQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i]] = int32(i)
	q.pos[q.items[j]] = int32(j)
}

func (q *heapQueue) up(ns []eventNode, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(ns, i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *heapQueue) down(ns []eventNode, i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(ns, right, left) {
			least = right
		}
		if !q.less(ns, least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

func (q *heapQueue) schedule(ns []eventNode, node int32) {
	for len(q.pos) <= int(node) {
		q.pos = append(q.pos, 0)
	}
	q.pos[node] = int32(len(q.items))
	q.items = append(q.items, node)
	q.up(ns, len(q.items)-1)
}

func (q *heapQueue) remove(ns []eventNode, node int32) {
	i := int(q.pos[node])
	last := len(q.items) - 1
	if i != last {
		q.swap(i, last)
	}
	q.items = q.items[:last]
	if i != last {
		q.down(ns, i)
		q.up(ns, i)
	}
}
