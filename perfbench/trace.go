package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"uqsim/internal/des"
)

// maxSpans bounds the callback spans a traced run keeps in memory. The
// aggregate per-layer totals cover every event; the kept spans are the
// first maxSpans callbacks, enough to inspect a run's event mix.
const maxSpans = 20000

// span is one timed interval of the traced run. Parent 0 means top level.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// span's ID is its index plus one. Structural spans (trials, simulation
// runs, engine runs) are always kept; callback spans only up to maxSpans.
type spanLog struct {
	epoch     time.Time
	spans     []span
	callbacks int
	dropped   uint64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// now is the time since the log's epoch in nanoseconds.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) add(parent int, name string, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open starts a structural span; close ends it.
func (l *spanLog) open(parent int, name string) int { return l.add(parent, name, l.now(), 0) }
func (l *spanLog) close(id int)                     { l.spans[id-1].End = l.now() }

// callback records a callback span if the log still has room.
func (l *spanLog) callback(parent int, name string, start, end int64) {
	if l.callbacks >= maxSpans {
		l.dropped++
		return
	}
	l.callbacks++
	l.add(parent, name, start, end)
}

// layer accumulates one package's callback work.
type layer struct {
	name   string
	selfNS int64
	events uint64
}

// tracer is a des.Runner decorator that times the simulator at the
// engine boundary from outside the program. Every At/Post/Cancel call is
// timed and counted as des work; every fired callback is timed and
// charged to the package that owns its function, minus the scheduling
// calls it makes. Callbacks fire one at a time on one goroutine, so the
// decorator needs no locking.
type tracer struct {
	des.Runner

	log    *spanLog
	parent int // span the engine runs belong to
	runID  int // span of the engine run in progress
	layers []layer
	byName map[string]int
	byPC   map[uintptr]int

	atCalls, postCalls, cancelCalls uint64
	events                          uint64
	pendingPeak                     int

	schedNS   int64 // every At/Post/Cancel call
	cbSchedNS int64 // scheduling calls made by the running callback
	cbNS      int64 // gross callback time
	runNS     int64 // time inside Run/RunUntil
}

// newTracer wraps inner. Its engine runs are logged as children of the
// span parent.
func newTracer(inner des.Runner, log *spanLog, parent int) *tracer {
	return &tracer{
		Runner: inner,
		log:    log,
		parent: parent,
		byName: make(map[string]int),
		byPC:   make(map[uintptr]int),
	}
}

// pkgOf names the package that defines the function at pc, e.g.
// "service" for uqsim/internal/service.(*Instance).startCPUBatch.func1.
func pkgOf(pc uintptr) string {
	f := runtime.FuncForPC(pc)
	if f == nil {
		return "unknown"
	}
	name := f.Name()
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation: the package precedes it
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return name
}

// layerOf returns the layer index for fn's code pointer, resolving the
// owning package once per pointer.
func (t *tracer) layerOf(fn des.Callback) int {
	pc := reflect.ValueOf(fn).Pointer()
	if i, ok := t.byPC[pc]; ok {
		return i
	}
	name := pkgOf(pc)
	i, ok := t.byName[name]
	if !ok {
		i = len(t.layers)
		t.layers = append(t.layers, layer{name: name})
		t.byName[name] = i
	}
	t.byPC[pc] = i
	return i
}

// wrap returns a callback that times fn and charges it to its layer.
func (t *tracer) wrap(fn des.Callback) des.Callback {
	li := t.layerOf(fn)
	return func(now des.Time) {
		t.cbSchedNS = 0
		start := t.log.now()
		fn(now)
		end := t.log.now()
		d := end - start
		t.cbNS += d
		t.layers[li].selfNS += d - t.cbSchedNS
		t.layers[li].events++
		t.events++
		t.log.callback(t.runID, t.layers[li].name, start, end)
	}
}

// sched records one scheduling call that started at start.
func (t *tracer) sched(start int64) {
	d := t.log.now() - start
	t.schedNS += d
	t.cbSchedNS += d
	if p := t.Runner.Pending(); p > t.pendingPeak {
		t.pendingPeak = p
	}
}

func (t *tracer) At(at des.Time, fn des.Callback) *des.Event {
	start := t.log.now()
	t.atCalls++
	ev := t.Runner.At(at, t.wrap(fn))
	t.sched(start)
	return ev
}

// After routes through At so that the wrapped callback and the call's
// time are recorded; it clamps negative delays as des.Engine does.
func (t *tracer) After(d des.Time, fn des.Callback) *des.Event {
	if d < 0 {
		d = 0
	}
	return t.At(t.Runner.Now()+d, fn)
}

func (t *tracer) Post(at des.Time, fn des.Callback) {
	start := t.log.now()
	t.postCalls++
	t.Runner.Post(at, t.wrap(fn))
	t.sched(start)
}

func (t *tracer) Cancel(ev *des.Event) {
	start := t.log.now()
	t.cancelCalls++
	t.Runner.Cancel(ev)
	t.sched(start)
}

func (t *tracer) Run() { t.timeRun(t.Runner.Run) }

func (t *tracer) RunUntil(deadline des.Time) {
	t.timeRun(func() { t.Runner.RunUntil(deadline) })
}

func (t *tracer) timeRun(run func()) {
	t.runID = t.log.open(t.parent, "des.run")
	start := t.log.now()
	run()
	t.runNS += t.log.now() - start
	t.log.close(t.runID)
}

// desSelfNS is the engine's own time: the run spans minus the callbacks
// they fired, plus every scheduling call.
func (t *tracer) desSelfNS() int64 { return t.runNS - t.cbNS + t.schedNS }
