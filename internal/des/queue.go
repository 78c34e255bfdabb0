package des

import "container/heap"

// eventQueue is the Engine's deterministic priority queue of events
// ordered by (time, sequence). The sequence number is assigned at
// scheduling time, so ties at the same timestamp fire in scheduling
// order regardless of heap internals. The queue keeps a freelist of
// fired fire-and-forget events so steady-state scheduling does not
// allocate; events scheduled with a handle (schedule with pooled=false)
// are never recycled, because the caller may retain the pointer.
type eventQueue struct {
	h    eventHeap
	seq  uint64
	free []*Event
}

// schedule enqueues fn at absolute time t and returns its handle. When
// pooled is true the event is recycled onto the freelist after it pops,
// so the handle must not be retained or cancelled by the caller.
func (q *eventQueue) schedule(t Time, fn Callback, pooled bool) *Event {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*ev = Event{at: t, seq: q.seq, fn: fn, pooled: pooled}
	} else {
		ev = &Event{at: t, seq: q.seq, fn: fn, pooled: pooled}
	}
	q.seq++
	heap.Push(&q.h, ev)
	return ev
}

// peek reports the timestamp of the earliest event. Cancel removes an
// event's heap entry, so the heap holds only live events.
func (q *eventQueue) peek() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// pop removes and returns the earliest event, or nil when the queue is
// empty. The caller is responsible for recycling pooled events after
// invoking their callbacks (see recycle).
func (q *eventQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

// remove cancels ev and, when it is still queued, removes its heap
// entry in O(log n). It reports whether an entry was removed.
func (q *eventQueue) remove(ev *Event) bool {
	if ev == nil || ev.canceled {
		return false
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&q.h, ev.index)
		q.recycle(ev)
		return true
	}
	return false
}

// recycle returns a popped pooled event to the freelist. Calling it
// with a non-pooled event is a no-op, so the engine can call it
// unconditionally after firing.
func (q *eventQueue) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	q.free = append(q.free, ev)
}
