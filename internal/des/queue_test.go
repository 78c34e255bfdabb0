package des

import "testing"

func TestEventQueueOrderAndRecycle(t *testing.T) {
	var q eventQueue
	var got []int
	rec := func(i int) Callback { return func(Time) { got = append(got, i) } }

	q.schedule(30, rec(2), true)
	q.schedule(10, rec(0), true)
	q.schedule(10, rec(1), true) // same time: scheduling order breaks the tie
	q.schedule(40, rec(3), false)

	var prev Time
	for {
		ev := q.pop()
		if ev == nil {
			break
		}
		if ev.At() < prev {
			t.Fatalf("events out of order: %v after %v", ev.At(), prev)
		}
		prev = ev.At()
		ev.fn(ev.At())
		q.recycle(ev)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want 0..3", got)
		}
	}
	if len(q.free) != 3 {
		t.Fatalf("freelist has %d events, want 3 (non-pooled event must not be recycled)", len(q.free))
	}

	// Re-scheduling must reuse freelist storage.
	before := len(q.free)
	q.schedule(50, rec(4), true)
	if len(q.free) != before-1 {
		t.Fatalf("Schedule did not draw from freelist: %d -> %d", before, len(q.free))
	}
}

func TestEventQueueRemove(t *testing.T) {
	var q eventQueue
	fired := false
	ev := q.schedule(10, func(Time) { fired = true }, false)
	q.schedule(20, func(Time) {}, true)

	if !q.remove(ev) {
		t.Fatal("Remove reported false for a queued event")
	}
	if q.remove(ev) {
		t.Fatal("second Remove reported true")
	}
	if at, ok := q.peek(); !ok || at != 20 {
		t.Fatalf("peek = %v,%v, want 20,true", at, ok)
	}
	for ev := q.pop(); ev != nil; ev = q.pop() {
		ev.fn(ev.At())
		q.recycle(ev)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEnginePostDoesNotAllocateInSteadyState(t *testing.T) {
	e := New()
	var hop Callback
	n := 0
	hop = func(now Time) {
		n++
		if n < 1000 {
			e.Post(now+Microsecond, hop)
		}
	}
	e.Post(0, hop)
	// Warm the freelist with the first events, then measure.
	allocs := testing.AllocsPerRun(100, func() {
		e.Post(e.Now()+2*Microsecond, func(Time) {})
		e.Step()
		e.Step()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state Post allocates %.1f objects/op, want 0", allocs)
	}
}
