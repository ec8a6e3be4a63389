package sim

import (
	"fmt"
	"testing"
	"time"
)

// --- differential testing: wheel vs reference heap -----------------------
//
// A byte script drives two engines — one on the timing wheel, one on the
// reference heap — through an identical sequence of Schedule / Cancel /
// Run / Step operations, including the shapes the wheel gets wrong first
// if it is wrong at all: same-tick ties (sub-tick ordering through the
// ready list), far-future events (overflow list and triple cascade),
// cancellation of events sitting mid-cascade, and callbacks that re-arm
// or cancel siblings while the queue is draining. After every operation
// the clocks, pending counts and cancel verdicts must agree; at the end
// the full fire traces must be byte-identical.

// diffDelays mixes every placement class: ready (0), level 0 (~ms..s),
// level 1 (~minutes), level 2 (~hours), and overflow (> ~3.26 days).
var diffDelays = []Duration{
	0,
	0, // twice: make same-instant ties common
	time.Millisecond,
	777 * time.Millisecond,
	3 * time.Second,
	90 * time.Second,
	2 * time.Hour,
	50 * time.Hour,
	100 * time.Hour,     // beyond the wheel horizon: overflow
	30 * 24 * time.Hour, // deep overflow
}

var diffRuns = []Duration{
	time.Second,
	70 * time.Second, // crosses a level-0 window boundary
	75 * time.Minute, // crosses a level-1 window boundary
	80 * time.Hour,   // crosses the overflow horizon
	24 * time.Hour * 7,
}

// diffRig is one engine plus the script-visible state around it.
type diffRig struct {
	eng   *Engine
	evs   []Event
	trace []string
}

func (r *diffRig) schedule(id int, d Duration, kind, aux byte) {
	var fn func()
	switch kind % 3 {
	case 0: // plain
		fn = func() { r.trace = append(r.trace, fmt.Sprintf("fire %d @%v", id, r.eng.Now())) }
	case 1: // re-arm once half a second later under a derived id
		fn = func() {
			r.trace = append(r.trace, fmt.Sprintf("fire %d @%v", id, r.eng.Now()))
			r.schedule(id+100000, 500*time.Millisecond, 0, 0)
		}
	case 2: // cancel a sibling from inside a callback (cancel-mid-drain)
		fn = func() {
			r.trace = append(r.trace, fmt.Sprintf("fire %d @%v", id, r.eng.Now()))
			if len(r.evs) > 0 {
				ok := r.eng.Cancel(r.evs[int(aux)%len(r.evs)])
				r.trace = append(r.trace, fmt.Sprintf("cb-cancel %d %v", id, ok))
			}
		}
	}
	r.evs = append(r.evs, r.eng.After(d, "diff", fn))
}

// runDiffScript interprets data against both rigs and fails t on the
// first divergence. It returns the (identical) traces for corpus checks.
func runDiffScript(t *testing.T, data []byte) []string {
	t.Helper()
	rigs := [2]*diffRig{
		{eng: NewEngine()},
		{eng: newEngineWithQueue(newHeapQueue())},
	}
	nextID := 0
	check := func(step int) {
		t.Helper()
		w, h := rigs[0], rigs[1]
		if w.eng.Now() != h.eng.Now() {
			t.Fatalf("step %d: clock diverged: wheel %v heap %v", step, w.eng.Now(), h.eng.Now())
		}
		if w.eng.Pending() != h.eng.Pending() {
			t.Fatalf("step %d: pending diverged: wheel %d heap %d", step, w.eng.Pending(), h.eng.Pending())
		}
		if w.eng.Fired() != h.eng.Fired() {
			t.Fatalf("step %d: fired diverged: wheel %d heap %d", step, w.eng.Fired(), h.eng.Fired())
		}
	}
	for i := 0; i+3 < len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		switch op % 6 {
		case 0, 1, 2: // schedule (weighted: most common op)
			d := diffDelays[int(a)%len(diffDelays)]
			// Jitter below tick granularity so ties and near-ties both occur.
			d += Duration(b) * time.Millisecond
			id := nextID
			nextID++
			for _, r := range rigs {
				r.schedule(id, d, c%3, c/3)
			}
		case 3: // cancel an arbitrary (possibly fired) handle
			if len(rigs[0].evs) == 0 {
				continue
			}
			k := int(a) % len(rigs[0].evs)
			okW := rigs[0].eng.Cancel(rigs[0].evs[k])
			okH := rigs[1].eng.Cancel(rigs[1].evs[k])
			if okW != okH {
				t.Fatalf("step %d: Cancel(evs[%d]) diverged: wheel %v heap %v", i, k, okW, okH)
			}
		case 4: // bounded run
			d := diffRuns[int(a)%len(diffRuns)] + Duration(b)*time.Second
			until := rigs[0].eng.Now().Add(d)
			for _, r := range rigs {
				if err := r.eng.Run(until); err != nil {
					t.Fatalf("step %d: Run: %v", i, err)
				}
			}
		case 5: // single step
			sW := rigs[0].eng.Step()
			sH := rigs[1].eng.Step()
			if sW != sH {
				t.Fatalf("step %d: Step diverged: wheel %v heap %v", i, sW, sH)
			}
		}
		check(i)
	}
	for _, r := range rigs {
		if err := r.eng.RunAll(); err != nil {
			t.Fatalf("final RunAll: %v", err)
		}
	}
	check(len(data))
	w, h := rigs[0].trace, rigs[1].trace
	if len(w) != len(h) {
		t.Fatalf("trace length diverged: wheel %d heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("trace[%d] diverged:\n  wheel: %s\n  heap:  %s", i, w[i], h[i])
		}
	}
	return w
}

func TestWheelVsHeapDifferential(t *testing.T) {
	// Randomized scripts from a deterministic generator. Each seed yields
	// a few hundred operations across every delay class.
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := NewRand(seed ^ 0x77bee1)
			script := make([]byte, 400+r.Intn(800))
			for i := range script {
				script[i] = byte(r.Intn(256))
			}
			runDiffScript(t, script)
		})
	}
}

func TestWheelVsHeapTargetedScripts(t *testing.T) {
	// Hand-built worst cases, one op per 4 bytes: op, delayIdx, jitter, kind.
	cases := map[string][]byte{
		// A burst of same-instant events, then drain: sub-tick tie order.
		"same-tick-ties": {
			0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0,
			0, 0, 0, 1, 0, 0, 0, 2, 5, 0, 0, 0, 5, 0, 0, 0,
		},
		// Far-future overflow events, then a run crossing the horizon.
		"overflow-cascade": {
			0, 8, 0, 0, 0, 9, 10, 0, 0, 8, 200, 0, 0, 7, 0, 0,
			4, 3, 0, 0, 4, 4, 0, 0,
		},
		// Schedule hours out, cancel while the node sits in level 2,
		// then run across the boundaries that would have cascaded it.
		"cancel-mid-cascade": {
			0, 6, 0, 0, 0, 7, 0, 0, 0, 5, 0, 0,
			3, 0, 0, 0, 3, 1, 0, 0,
			4, 2, 0, 0, 4, 3, 0, 0,
		},
		// Callbacks that cancel siblings while the ready list drains.
		"cancel-from-callback": {
			0, 0, 0, 2, 0, 0, 0, 5, 0, 1, 0, 8, 0, 2, 0, 2,
			0, 0, 0, 1, 4, 0, 0, 0, 4, 1, 0, 0,
		},
		// Re-arming callbacks across an idle gap: cursor resync path.
		"idle-resync": {
			0, 3, 0, 1, 4, 4, 0, 0, 0, 2, 0, 1, 4, 4, 0, 0,
		},
	}
	for name, script := range cases {
		script := script
		t.Run(name, func(t *testing.T) {
			if trace := runDiffScript(t, script); len(trace) == 0 && name != "cancel-mid-cascade" {
				t.Fatalf("script fired no events — not exercising anything")
			}
		})
	}
}

func FuzzWheelVsHeap(f *testing.F) {
	// Seed corpus: the targeted scripts plus a couple of generator runs.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{0, 8, 0, 0, 0, 9, 10, 0, 4, 3, 0, 0, 4, 4, 0, 0})
	f.Add([]byte{0, 6, 0, 0, 3, 0, 0, 0, 4, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 8, 0, 2, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{0, 3, 0, 1, 4, 4, 0, 0, 0, 2, 0, 1, 4, 4, 0, 0})
	r := NewRand(0xfeed)
	for i := 0; i < 4; i++ {
		script := make([]byte, 64)
		for j := range script {
			script[j] = byte(r.Intn(256))
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runDiffScript(t, data)
	})
}

// --- event-pool aliasing --------------------------------------------------

// TestEventPoolAliasing proves a recycled node is never observable through
// a stale handle: after an event fires or is cancelled, its handle stays
// dead forever — Cancel through it is a no-op that cannot kill the node's
// next tenant, Pending stays false, and no callback ever double-fires.
func TestEventPoolAliasing(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		r := NewRand(42)
		fires := map[int]int{}
		type slot struct {
			ev Event
			id int
		}
		var issued []slot
		nextID := 0
		for round := 0; round < 5000; round++ {
			switch r.Intn(4) {
			case 0, 1:
				id := nextID
				nextID++
				ev := e.After(Duration(r.Intn(5000))*time.Millisecond, "alias", func() { fires[id]++ })
				issued = append(issued, slot{ev, id})
			case 2:
				if len(issued) > 0 {
					s := issued[r.Intn(len(issued))]
					wasPending := s.ev.Pending()
					got := e.Cancel(s.ev)
					if got != wasPending {
						t.Fatalf("Cancel returned %v for handle with Pending=%v", got, wasPending)
					}
					if fires[s.id] > 0 && got {
						t.Fatalf("Cancel after fire succeeded for id %d", s.id)
					}
				}
			case 3:
				e.Run(e.Now().Add(Duration(r.Intn(3000)) * time.Millisecond))
			}
		}
		e.RunAll()
		for _, s := range issued {
			if fires[s.id] > 1 {
				t.Fatalf("event %d fired %d times", s.id, fires[s.id])
			}
			if s.ev.Pending() {
				t.Fatalf("handle %d still pending after RunAll", s.id)
			}
		}
	})
}

// TestEventPoolAliasingSharded runs the aliasing workload on four shards
// under RunShards with Workers:4 — each engine's pool is private to its
// shard, and the race detector (make check / chaos run -race) proves the
// recycling scheme involves no cross-goroutine traffic.
func TestEventPoolAliasingSharded(t *testing.T) {
	err := RunShards(8, 4, func(shard int) error {
		e := NewEngine()
		r := NewRand(uint64(shard) * 977)
		fired := make([]int, 0, 4096)
		var evs []Event
		for i := 0; i < 2000; i++ {
			i := i
			switch r.Intn(3) {
			case 0:
				evs = append(evs, e.After(Duration(r.Intn(2000))*time.Millisecond, "s", func() {
					fired = append(fired, i)
				}))
			case 1:
				if len(evs) > 0 {
					e.Cancel(evs[r.Intn(len(evs))])
				}
			case 2:
				if err := e.Run(e.Now().Add(Duration(r.Intn(1500)) * time.Millisecond)); err != nil {
					return err
				}
			}
		}
		if err := e.RunAll(); err != nil {
			return err
		}
		seen := map[int]bool{}
		for _, id := range fired {
			if seen[id] {
				return fmt.Errorf("shard %d: event %d double-fired", shard, id)
			}
			seen[id] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- allocation bounds ----------------------------------------------------

// TestEngineZeroAllocSteadyState pins the headline budget: once the pool
// is warm, a schedule+fire cycle allocates nothing at all — on either
// queue implementation.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fn := func() {}
		// Warm the pool and the heap's slice capacity.
		for i := 0; i < 64; i++ {
			e.After(Duration(i)*time.Millisecond, "warm", fn)
		}
		for e.Step() {
		}
		avg := testing.AllocsPerRun(2000, func() {
			e.After(700*time.Millisecond, "steady", fn)
			e.Step()
		})
		if avg != 0 {
			t.Errorf("steady-state schedule+fire = %v allocs/event, want 0", avg)
		}
	})
}
