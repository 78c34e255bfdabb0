package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// modelLayers are the packages whose callbacks get their own per-layer
// metrics; callbacks of any other package are summed under "other".
var modelLayers = []string{"service", "sim", "workload", "hybrid"}

// desTotals sums the engine counters of a traced pass.
type desTotals struct {
	SelfS       float64 `json:"self_s"`
	Events      uint64  `json:"events"`
	PostCalls   uint64  `json:"post_calls"`
	AtCalls     uint64  `json:"at_calls"`
	CancelCalls uint64  `json:"cancel_calls"`
	PendingPeak int     `json:"pending_peak"`
}

// layerTotal is one package's callback work over a traced pass.
type layerTotal struct {
	Name   string  `json:"name"`
	SelfS  float64 `json:"self_s"`
	Events uint64  `json:"events"`
}

// sumTraced adds up the tracers of a traced pass: the engine counters and
// each package's self time and events, sorted by package. Chaos units
// carry no tracer (the harness builds its own engines); they contribute
// only their event counts.
func sumTraced(traced []*sample) (desTotals, []layerTotal) {
	var d desTotals
	byName := make(map[string]*layerTotal)
	for _, s := range traced {
		t := s.tr
		if t == nil {
			d.Events += s.events
			continue
		}
		d.SelfS += float64(t.desSelfNS()) / 1e9
		d.Events += t.events
		d.PostCalls += t.postCalls
		d.AtCalls += t.atCalls
		d.CancelCalls += t.cancelCalls
		d.PendingPeak = max(d.PendingPeak, t.pendingPeak)
		for _, l := range t.layers {
			sum, ok := byName[l.name]
			if !ok {
				sum = &layerTotal{Name: l.name}
				byName[l.name] = sum
			}
			sum.SelfS += float64(l.selfNS) / 1e9
			sum.Events += l.events
		}
	}
	layers := make([]layerTotal, 0, len(byName))
	for _, l := range byName {
		layers = append(layers, *l)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	return d, layers
}

// checkTraced counts as failed every traced unit whose output differs
// from the same unit untraced.
func checkTraced(res *result, plain, traced []*sample) {
	want := make(map[uint64]string, len(plain))
	for _, s := range plain {
		want[s.seed] = s.fp
	}
	for _, s := range traced {
		if fp, ok := want[s.seed]; ok && fp != s.fp {
			fmt.Fprintf(os.Stderr, "perfbench: traced unit (seed %d) differs from untraced:\n  untraced: %s\n  traced:   %s\n",
				s.seed, fp, s.fp)
			res.Failed++
		}
	}
}

// perLayer fills the metrics of a traced run. Layer and des values are
// means per unit of the traced pass; gc.*, des.events_per_s and the sim.*
// and hybrid.bg_requests context come from the untraced pass.
func perLayer(res *result, plain, traced []*sample, gc gcStats) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	perTraced := func(v float64) float64 { return v / float64(max(len(traced), 1)) }
	perPlain := func(v float64) float64 { return v / float64(len(plain)) }

	d, layers := sumTraced(traced)
	set("des.events", perTraced(float64(d.Events)), "count")
	set("des.post_calls", perTraced(float64(d.PostCalls)), "count")
	set("des.at_calls", perTraced(float64(d.AtCalls)), "count")
	set("des.cancel_calls", perTraced(float64(d.CancelCalls)), "count")
	set("des.pending_peak", float64(d.PendingPeak), "count")
	set("des.self_s", perTraced(d.SelfS), "s")
	set("des.self_ns_per_event", ratio(d.SelfS*1e9, float64(d.Events)), "ns")

	layerSelf := 0.0
	other := layerTotal{Name: "other"}
	byName := map[string]layerTotal{}
	for _, l := range layers {
		layerSelf += l.SelfS
		if contains(modelLayers, l.Name) {
			byName[l.Name] = l
		} else {
			other.SelfS += l.SelfS
			other.Events += l.Events
		}
	}
	byName[other.Name] = other
	for _, name := range append(modelLayers, other.Name) {
		l := byName[name]
		set(name+".self_s", perTraced(l.SelfS), "s")
		set(name+".events", perTraced(float64(l.Events)), "count")
	}

	var verify, shrink, tracedHost, runWall float64
	var findings, explored, shrunk int
	for _, s := range traced {
		verify += s.verify.Seconds()
		shrink += s.shrink.Seconds()
		findings += s.findings
		explored += s.explored
		shrunk += s.shrunk
		tracedHost += s.unit.Seconds()
		runWall += s.runWall.Seconds()
	}
	set("chaos.verify_s", perTraced(verify), "s")
	set("chaos.shrink_s", perTraced(shrink), "s")
	set("chaos.findings", perTraced(float64(findings)), "count")
	set("chaos.events_explored", perTraced(float64(explored)), "count")
	set("chaos.events_shrunk", perTraced(float64(shrunk)), "count")

	var plainEvents uint64
	var plainEventsHost, plainHost float64
	var retries, timeouts, bg uint64
	for _, s := range plain {
		plainEvents += s.events
		plainEventsHost += s.eventsHost.Seconds()
		plainHost += s.unit.Seconds()
		retries += s.out.retries
		timeouts += s.out.timeouts
		bg += s.out.bgArrivals
	}
	set("des.events_per_s", ratio(float64(plainEvents), plainEventsHost), "1/s")
	set("gc.allocs_per_event", ratio(gc.allocs, float64(plainEvents)), "allocs/event")
	set("gc.bytes_per_event", ratio(gc.bytes, float64(plainEvents)), "B/event")
	set("gc.cycles", perPlain(gc.cycles), "count")
	set("gc.cpu_frac", ratio(gc.gcCPU, gc.totalCPU), "ratio")
	set("sim.p50_ms", median(plain, func(s *sample) float64 { return s.out.p50ms }), "ms")
	set("sim.p99_ms", median(plain, func(s *sample) float64 { return s.out.p99ms }), "ms")
	set("sim.retries", perPlain(float64(retries)), "count")
	set("sim.timeouts", perPlain(float64(timeouts)), "count")
	set("hybrid.bg_requests", perPlain(float64(bg)), "count")

	// Both passes ran the same units, so the ratio of their mean host
	// times is the cost of tracing, which the traced numbers include.
	set("trace.overhead_frac", ratio(perTraced(tracedHost), perPlain(plainHost))-1, "ratio")
	// The layers and des should account for the wall time of the traced
	// Run calls; the rest is Run's own work outside the engine. A chaos
	// trial is split into verify and shrink, which account for it fully.
	accounted := ratio(layerSelf+d.SelfS, runWall)
	if runWall == 0 {
		accounted = ratio(verify+shrink, tracedHost)
	}
	set("trace.accounted_frac", accounted, "ratio")
}

// ratio is a/b, or 0 when b is 0: a metric must stay a finite number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// spanFile is the traced run's span dump.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Units    int    `json:"units"`
	// Layers holds every package that owned a callback, with its total
	// self time and event count over the traced pass.
	Layers []layerTotal `json:"layers"`
	DES    desTotals    `json:"des"`
	// DroppedSpans counts callback spans beyond the kept maximum; their
	// time is in Layers.
	DroppedSpans uint64 `json:"dropped_spans"`
	Spans        []span `json:"spans"`
}

// writeSpans writes the traced pass's totals and spans under o.out.
func writeSpans(o options, log *spanLog, traced []*sample) error {
	d, layers := sumTraced(traced)
	data, err := json.Marshal(spanFile{
		Workload: o.workload, Seed: o.seed, Units: len(traced),
		Layers: layers, DES: d, DroppedSpans: log.dropped, Spans: log.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, outName(o, "spans.json")), data, 0o644)
}
