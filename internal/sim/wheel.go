package sim

import "math/bits"

// Hierarchical timing wheel — the engine's event queue.
//
// Virtual time is bucketed into ticks of 2^tickShift ns (~1.07 s). Three
// levels of 64 slots each cover, per level, a window of 64, 64², and 64³
// ticks (~69 s, ~73 min, ~78 h); events beyond the day level go to a
// sorted overflow list. An event's level is the highest 6-bit tick group
// in which it differs from the cursor, so a slot never mixes ticks from
// two windows: by the time the cursor reaches a level-0 slot, every node
// in it has tick == cur exactly.
//
// The cursor advances lazily, driven by peekWhen/popMin. It jumps straight
// to the next occupied slot of the lowest occupied level via the
// per-level occupancy bitmaps and drains it one level down (or further);
// once the wheel is empty it enters the overflow head's day-level window
// and re-places the overflow prefix that fits it. Events whose tick
// has been reached sit in "ready", a doubly linked list kept sorted by
// (when, seq): a tick is ~1.07 s wide, so same-tick events still need
// sub-tick ordering, and the sorted list is what restores it. Pops are
// O(1) off the ready head.
//
// Costs: schedule and remove are O(1) except for sorted inserts into
// ready (tail-scan — same-instant bursts append in seq order, so the
// common case is O(1)) and into overflow (rare: only events > ~3.26 days
// out). Advance is amortised O(1) per event: each node is re-placed at
// most once per level, and empty windows are jumped over, not crossed.
//
// The wheel holds no pointer. Its lists link nodes of the engine's arena
// by index (0 is "none"), and every method takes the arena's node slice,
// which may have been reallocated since the last call.
type wheel struct {
	cur   int64 // current tick (when >> tickShift); never decreases while events are pending
	count int   // total pending nodes across ready, slots, and overflow

	ready, readyTail int32 // sorted (when, seq); every node has tick <= cur

	// Slot lists are prepend-only (LIFO) so no per-slot tail is needed.
	// Drain reverses the list before re-placing so downstream sorted
	// inserts still see near-FIFO input.
	slots [wheelLevels][slotsPerLevel]int32
	occ   [wheelLevels]uint64 // bit s set iff slots[lvl][s] is non-empty

	of, ofTail int32 // sorted (when, seq); every node has tick >= cur + 64^3
}

const (
	tickShift     = 30 // tick width 2^30 ns ≈ 1.07 s
	slotBits      = 6
	slotsPerLevel = 1 << slotBits
	slotMask      = slotsPerLevel - 1
	wheelLevels   = 3
)

func (w *wheel) schedule(ns []eventNode, i int32, now Time) {
	if w.count == 0 {
		// Nothing pending constrains the cursor, so resync it to the
		// clock: after an idle gap this skips the dead windows instead
		// of cascading through them one boundary at a time.
		w.cur = int64(now) >> tickShift
	}
	w.place(ns, i)
	w.count++
}

// place links a node into the structure that matches its distance from
// the cursor. Levels are chosen by the highest differing 6-bit tick
// group, not by raw delta: mid-window, a delta-based rule would wrap a
// near-boundary event into a slot the cursor has already passed this
// rotation, and it would fire a full rotation late.
func (w *wheel) place(ns []eventNode, i int32) {
	tick := int64(ns[i].when) >> tickShift
	switch {
	case tick <= w.cur:
		ns[i].home = homeReady
		insertSorted(ns, i, &w.ready, &w.readyTail)
	case tick>>slotBits == w.cur>>slotBits:
		w.insertSlot(ns, i, 0, int(tick&slotMask))
	case tick>>(2*slotBits) == w.cur>>(2*slotBits):
		w.insertSlot(ns, i, 1, int((tick>>slotBits)&slotMask))
	case tick>>(3*slotBits) == w.cur>>(3*slotBits):
		w.insertSlot(ns, i, 2, int((tick>>(2*slotBits))&slotMask))
	default:
		ns[i].home = homeOverflow
		insertSorted(ns, i, &w.of, &w.ofTail)
	}
}

func nodeLess(a, b *eventNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// insertSorted links node i into the (when, seq)-sorted list between
// *head and *tail, scanning from the tail: drains feed nodes in seq order
// and same-instant schedules carry increasing seqs, so new nodes nearly
// always belong at or near the end.
func insertSorted(ns []eventNode, i int32, head, tail *int32) {
	n := &ns[i]
	p := *tail
	for p != 0 && nodeLess(n, &ns[p]) {
		p = ns[p].prev
	}
	n.prev = p
	if p == 0 {
		n.next = *head
		*head = i
	} else {
		n.next = ns[p].next
		ns[p].next = i
	}
	if n.next != 0 {
		ns[n.next].prev = i
	} else {
		*tail = i
	}
}

// unlink removes node i from the list between *head and *tail.
func unlink(ns []eventNode, i int32, head, tail *int32) {
	n := &ns[i]
	if n.prev != 0 {
		ns[n.prev].next = n.next
	} else {
		*head = n.next
	}
	if n.next != 0 {
		ns[n.next].prev = n.prev
	} else {
		*tail = n.prev
	}
	n.next, n.prev = 0, 0
}

// insertSlot prepends to the slot's list. Order within a slot is free:
// sub-tick ordering is restored by the sorted ready insert at drain time.
func (w *wheel) insertSlot(ns []eventNode, i int32, lvl, slot int) {
	n := &ns[i]
	n.home = homeSlot
	n.lvl, n.slot = int8(lvl), int8(slot)
	n.prev = 0
	n.next = w.slots[lvl][slot]
	if n.next != 0 {
		ns[n.next].prev = i
	} else {
		w.occ[lvl] |= 1 << uint(slot)
	}
	w.slots[lvl][slot] = i
}

// remove unlinks a pending node.
func (w *wheel) remove(ns []eventNode, i int32) {
	n := &ns[i]
	switch n.home {
	case homeReady:
		unlink(ns, i, &w.ready, &w.readyTail)
	case homeOverflow:
		unlink(ns, i, &w.of, &w.ofTail)
	case homeSlot:
		head := &w.slots[n.lvl][n.slot]
		if n.prev != 0 {
			ns[n.prev].next = n.next
		} else {
			*head = n.next
		}
		if n.next != 0 {
			ns[n.next].prev = n.prev
		}
		if *head == 0 {
			w.occ[n.lvl] &^= 1 << uint(n.slot)
		}
		n.next, n.prev = 0, 0
	}
	w.count--
}

// popMin removes and returns the minimum (when, seq) node, or 0.
func (w *wheel) popMin(ns []eventNode) int32 {
	w.advance(ns)
	i := w.ready
	if i == 0 {
		return 0
	}
	unlink(ns, i, &w.ready, &w.readyTail)
	w.count--
	return i
}

// peekWhen returns the minimum pending when.
func (w *wheel) peekWhen(ns []eventNode) (Time, bool) {
	w.advance(ns)
	if w.ready == 0 {
		return 0, false
	}
	return ns[w.ready].when, true
}

// advance moves the cursor forward until the earliest pending event sits
// in ready (or nothing is pending). It only rearranges nodes between the
// wheel's internal lists — the pending set and its fire order are
// unchanged, which is what lets peekWhen share it.
//
// An occupied slot always lies strictly ahead of the cursor's own slot at
// its level (a node at the cursor's position would have been placed one
// level down), so the next occupied slot is the lowest bit of the level's
// bitmap above that position. The cursor jumps straight to it: empty
// windows cost nothing, however long the gap to the next event. A slot
// drains into levels below it, so the lowest occupied level always holds
// the earliest events; the cursor enters a new day-level window only
// once the wheel is empty, by jumping to the overflow head's window.
func (w *wheel) advance(ns []eventNode) {
	for w.ready == 0 && w.count > 0 {
		if s, ok := nextSlot(w.occ[0], w.cur); ok {
			w.cur = w.cur&^slotMask | int64(s)
			w.drain(ns, 0, s)
			continue
		}
		if s, ok := nextSlot(w.occ[1], w.cur>>slotBits); ok {
			w.cur = w.cur&^(1<<(2*slotBits)-1) | int64(s)<<slotBits
			w.drain(ns, 1, s)
			continue
		}
		if s, ok := nextSlot(w.occ[2], w.cur>>(2*slotBits)); ok {
			w.cur = w.cur&^(1<<(3*slotBits)-1) | int64(s)<<(2*slotBits)
			w.drain(ns, 2, s)
			continue
		}
		// Only overflow is left. The list is sorted, so the nodes that fit
		// the head's day-level window are exactly its prefix below the
		// window's end.
		w.cur = int64(ns[w.of].when) >> tickShift &^ (1<<(3*slotBits) - 1)
		limit := w.cur + 1<<(3*slotBits)
		for w.of != 0 && int64(ns[w.of].when)>>tickShift < limit {
			i := w.of
			unlink(ns, i, &w.of, &w.ofTail)
			w.place(ns, i)
		}
	}
}

// nextSlot returns the lowest set bit of occ above the slot that pos
// (a tick shifted down to the level) names, if there is one.
func nextSlot(occ uint64, pos int64) (int, bool) {
	m := occ &^ (2<<uint(pos&slotMask) - 1)
	return bits.TrailingZeros64(m), m != 0
}

// drain empties one slot and re-places every node. For a level-0 slot the
// cursor has just reached, every node has tick == cur, so place routes
// them into ready; for higher levels they drop one level (or further).
func (w *wheel) drain(ns []eventNode, lvl, slot int) {
	i := w.slots[lvl][slot]
	if i == 0 {
		return
	}
	w.slots[lvl][slot] = 0
	w.occ[lvl] &^= 1 << uint(slot)
	// The slot list is LIFO; reverse it so nodes re-place in insertion
	// order and the tail-scanning sorted inserts below stay O(1) for the
	// common ascending-seq case. place rewrites both links of each node.
	var rev int32
	for i != 0 {
		next := ns[i].next
		ns[i].next = rev
		rev = i
		i = next
	}
	for rev != 0 {
		next := ns[rev].next
		w.place(ns, rev)
		rev = next
	}
}
