package des

import (
	"fmt"
	"sync/atomic"
)

// Callback is the body of a scheduled event. It receives the virtual time at
// which the event fires (always equal to Engine.Now at that instant).
type Callback func(now Time)

// Event is a handle to a scheduled callback. It can be cancelled until it
// fires; cancellation removes the heap entry in O(log n), so heavily
// cancelled workloads (e.g. RPC timeout guards that almost never fire)
// don't bloat the queue.
type Event struct {
	at       Time
	seq      uint64
	index    int // heap index; -1 once popped
	canceled bool
	pooled   bool // fire-and-forget: recycled after firing, no live handle
	fn       Callback
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulation loop. Zero value is
// not usable; construct with New. Engines are not safe for concurrent use:
// all scheduling must happen from event callbacks or before Run.
type Engine struct {
	now Time
	q   eventQueue
	// stopped is atomic so an external watchdog (signal handler, wall-clock
	// guard) may call Stop while Run spins on another goroutine. Everything
	// else on the engine remains single-threaded.
	stopped   atomic.Bool
	processed uint64
}

var _ Runner = (*Engine)(nil)

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of live events currently scheduled.
func (e *Engine) Pending() int { return len(e.q.h) }

// Processed reports how many events have fired since construction.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a causality bug in a model, never a recoverable
// condition.
func (e *Engine) At(t Time, fn Callback) *Event {
	e.check(t, fn)
	return e.q.schedule(t, fn, false)
}

// After schedules fn to run d after the current virtual time. Negative
// delays clamp to zero.
func (e *Engine) After(d Time, fn Callback) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn at absolute time t fire-and-forget. No handle is
// returned and the event's storage is recycled after it fires, so hot
// paths that never cancel (service stage completions, generator arrivals)
// do not allocate in steady state.
func (e *Engine) Post(t Time, fn Callback) {
	e.check(t, fn)
	e.q.schedule(t, fn, true)
}

func (e *Engine) check(t Time, fn Callback) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("des: nil event callback")
	}
}

// Cancel prevents ev from firing and removes its heap entry. Cancelling an
// already-fired or already-cancelled event is a harmless no-op.
func (e *Engine) Cancel(ev *Event) { e.q.remove(ev) }

// Step fires the single earliest pending event. It reports false when the
// queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped.Load() {
		return false
	}
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.processed++
	fn := ev.fn
	e.q.recycle(ev)
	fn(e.now)
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps ≤ deadline, then advances the clock
// to the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped.Load() {
		next, ok := e.q.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline && !e.stopped.Load() {
		e.now = deadline
	}
}

// NextEventTime reports the firing time of the earliest live pending event.
func (e *Engine) NextEventTime() (Time, bool) { return e.q.peek() }

// Stop halts Run/RunUntil after the current event completes. Further Step
// calls report false until Resume.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped.Store(false) }

// Stopped reports whether the engine is currently stopped.
func (e *Engine) Stopped() bool { return e.stopped.Load() }
