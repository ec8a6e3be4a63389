package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// queueImpls enumerates the event-queue implementations behind the engine.
// Every engine contract test below runs against each of them: the timing
// wheel (the default) and the reference heap must be observably identical.
var queueImpls = []struct {
	name string
	mk   func() *Engine
}{
	{"wheel", NewEngine},
	{"heap", func() *Engine { return newEngineWithQueue(newHeapQueue()) }},
}

func forEachQueue(t *testing.T, f func(t *testing.T, newEngine func() *Engine)) {
	for _, impl := range queueImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) { f(t, impl.mk) })
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		e.After(3*time.Second, "c", func() { got = append(got, 3) })
		e.After(1*time.Second, "a", func() { got = append(got, 1) })
		e.After(2*time.Second, "b", func() { got = append(got, 2) })
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.At(Epoch.Add(time.Second), "tie", func() { got = append(got, i) })
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := false
		ev := e.After(time.Second, "x", func() { fired = true })
		if !ev.Pending() {
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		evs := make([]Event, 0, 20)
		for i := 0; i < 20; i++ {
			i := i
			evs = append(evs, e.After(time.Duration(i)*time.Second, "n", func() { got = append(got, i) }))
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			e.After(time.Minute, "tick", tick)
		}
		e.After(time.Minute, "tick", tick)
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		e.After(time.Second, "only", func() {})
		if err := e.Run(Epoch.Add(time.Hour)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if e.Now() != Epoch.Add(time.Hour) {
			t.Errorf("Now = %v, want 1h", e.Now())
		}
	})
}

func TestEngineStop(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count == 5 {
				e.Stop()
			}
			e.After(time.Second, "tick", tick)
		}
		e.After(time.Second, "tick", tick)
		if err := e.RunAll(); err != ErrStopped {
			t.Fatalf("RunAll err = %v, want ErrStopped", err)
		}
		if count != 5 {
			t.Errorf("count = %d, want 5", count)
		}
	})
}

func TestEngineSchedulingInPastClampsToNow(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var at Time = Never
		e.After(10*time.Second, "outer", func() {
			e.At(Epoch, "past", func() { at = e.Now() })
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		e.After(time.Second, "x", func() {})
		s := e.String()
		if !strings.Contains(s, "pending=1") {
			t.Errorf("String = %q, want pending=1", s)
		}
		if !strings.Contains(s, "queue="+e.queue.name()) {
			t.Errorf("String = %q, want queue=%s", s, e.queue.name())
		}
	})
}

func TestEngineHandleOutlivesFire(t *testing.T) {
	// The value handle keeps reporting the original When/Label after the
	// node behind it has been recycled for another event.
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		ev := e.After(time.Second, "first", func() {})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if ev.Pending() {
			t.Error("fired event still pending")
		}
		// Recycle the node.
		ev2 := e.After(time.Minute, "second", func() {})
		if ev.Pending() {
			t.Error("stale handle pending after node reuse")
		}
		if ev.When() != Epoch.Add(time.Second) || ev.Label() != "first" {
			t.Errorf("stale handle When/Label = %v/%q", ev.When(), ev.Label())
		}
		if e.Cancel(ev) {
			t.Error("Cancel through stale handle succeeded")
		}
		if !ev2.Pending() {
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
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
				e.At(at, "p", func() { log = append(log, fired{e.Now(), i}) })
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
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		depth := 0
		var recurse func()
		recurse = func() {
			depth++
			if depth < 10 {
				e.After(time.Second, "deeper", recurse)
			}
		}
		e.After(time.Second, "start", recurse)
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if depth != 10 {
			t.Errorf("depth = %d", depth)
		}
	})
}

// heapQueue is the binary-heap reference implementation, ordered by
// (when, seq). It predates the timing wheel and is kept here, in the tests,
// as the oracle the wheel is differentially tested against.
type heapQueue struct {
	nodes []*eventNode
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) name() string { return "heap" }

func (q *heapQueue) Len() int { return len(q.nodes) }

func (q *heapQueue) less(i, j int) bool {
	a, b := q.nodes[i], q.nodes[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *heapQueue) swap(i, j int) {
	q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i]
	q.nodes[i].heapIndex = int32(i)
	q.nodes[j].heapIndex = int32(j)
}

func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *heapQueue) down(i int) {
	n := len(q.nodes)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

func (q *heapQueue) Schedule(n *eventNode, _ Time) {
	n.home = homeHeap
	n.heapIndex = int32(len(q.nodes))
	q.nodes = append(q.nodes, n)
	q.up(len(q.nodes) - 1)
}

func (q *heapQueue) Remove(n *eventNode) {
	i := int(n.heapIndex)
	last := len(q.nodes) - 1
	if i != last {
		q.swap(i, last)
	}
	q.nodes[last] = nil
	q.nodes = q.nodes[:last]
	if i != last {
		q.down(i)
		q.up(i)
	}
}

func (q *heapQueue) PopMin() *eventNode {
	if len(q.nodes) == 0 {
		return nil
	}
	n := q.nodes[0]
	q.Remove(n)
	return n
}

func (q *heapQueue) PeekWhen() (Time, bool) {
	if len(q.nodes) == 0 {
		return 0, false
	}
	return q.nodes[0].when, true
}
