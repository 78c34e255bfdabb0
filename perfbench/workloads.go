package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uqsim/internal/apps"
	"uqsim/internal/chaos"
	"uqsim/internal/cluster"
	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/rng"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// size scales a workload. The benchmark runs the full size; the test
// runs a tiny one.
type size struct {
	twoTierQPS     float64
	twoTierSimTime des.Time
	hybridUsers    int
	hybridSimTime  des.Time
	// chaosConfig is the config directory the chaos harness searches;
	// chaosTrials is the number of trials in a unit.
	chaosConfig string
	chaosTrials int
}

var fullSize = size{
	twoTierQPS:     40000,
	twoTierSimTime: des.Second,
	hybridUsers:    1_000_000,
	hybridSimTime:  3 * des.Second,
	chaosConfig:    "configs/metastable",
	chaosTrials:    4,
}

// sample is the outcome of one unit of workload work: one simulation of
// twotier-steady or hybrid-flashcrowd, or one batch of chaos trials.
type sample struct {
	seed uint64
	// setups holds, per simulation, the host seconds from the start of
	// assembly until its first event fires; reqRates the simulated
	// requests resolved, foreground and background, per host second from
	// then until Run returns. For chaos they describe the plain runs of
	// the config that precede each trial.
	setups, reqRates []float64
	// unit is the host time of the whole unit: assembly, run and checks
	// of a simulation, or the Harness.Trial calls of a chaos batch.
	unit time.Duration
	// trialTimes holds the host seconds of each chaos trial of the unit
	// (for a simulation, of the whole unit).
	trialTimes []float64
	// run is the host time from the first event until Run returns;
	// runWall is the wall time of the traced Run call.
	run, runWall time.Duration
	// events counts fired engine events, over eventsHost of host time.
	events     uint64
	eventsHost time.Duration
	// fp identifies the unit's output: the report fingerprint of a
	// simulation, the finding IDs and event counts of a chaos batch.
	fp string
	// out is what the report of the simulation (chaos: of the first plain
	// run) says; the report itself is not kept, so that a run's memory
	// does not grow with its number of units.
	out outcome
	// chaos trial details.
	explored, shrunk, findings int
	verify, shrink             time.Duration
	// tr is the decorator of a traced simulation (nil when untraced).
	tr *tracer
}

// runner executes one workload unit at a time. traced units pass their
// engine through the tracer and log spans under parent.
type runner interface {
	unit(i int, log *spanLog) (*sample, error)
	// check compares the run's units against an independent reference.
	check(units []*sample) error
}

// unitSeed derives the seed of unit i from the workload seed, so a run
// covers many simulation seeds and the same workload seed repeats them.
func unitSeed(seed uint64, i int) uint64 {
	return rng.NewSplitter(seed).Child("perfbench", fmt.Sprint(i)).Stream("seed").Uint64()
}

// outcome is the part of a run report the metrics and checks use.
type outcome struct {
	p50ms, p99ms                               float64
	completions, retries, timeouts, bgArrivals uint64
}

func outcomeOf(rep *sim.Report) outcome {
	return outcome{
		p50ms: rep.Latency.P50().Millis(), p99ms: rep.Latency.P99().Millis(),
		completions: rep.Completions, retries: rep.Retries,
		timeouts: rep.Timeouts, bgArrivals: rep.BackgroundArrivals,
	}
}

// resolvedOf counts every request of a report that reached an outcome.
func resolvedOf(rep *sim.Report) uint64 {
	return rep.Arrivals - uint64(rep.InFlight) + rep.BackgroundArrivals
}

// runSim assembles a simulation with build on a fresh engine (traced when
// log is non-nil), runs it for simTime and checks its report.
func runSim(seed uint64, log *spanLog, simTime des.Time,
	build func(seed uint64, eng des.Runner) (*sim.Sim, error)) (*sample, error) {
	start := cpuTime()
	inner := des.New()
	var eng des.Runner = inner
	var tr *tracer
	if log != nil {
		parent := log.open(0, "sim.unit")
		defer log.close(parent)
		tr = newTracer(inner, log, parent)
		eng = tr
	}
	s, err := build(seed, eng)
	if err != nil {
		return nil, err
	}
	// The first event marks the end of set-up: it is posted on the inner
	// engine at time 0 before Run schedules anything, so it fires first
	// and is invisible to the tracer.
	var first time.Duration
	inner.Post(0, func(des.Time) { first = cpuTime() })
	var runID int
	if log != nil {
		runID = log.open(tr.parent, "sim.run")
		tr.parent = runID
	}
	rep, err := s.Run(0, simTime)
	end := cpuTime()
	var runWall time.Duration
	if log != nil {
		log.close(runID)
		runWall = time.Duration(log.spans[runID-1].End - log.spans[runID-1].Start)
	}
	if err != nil {
		return nil, err
	}
	if err := validate.Conservation(rep); err != nil {
		return nil, err
	}
	run := end - first
	unit := cpuTime() - start
	return &sample{
		seed:       seed,
		setups:     []float64{(first - start).Seconds()},
		reqRates:   []float64{float64(resolvedOf(rep)) / run.Seconds()},
		unit:       unit,
		trialTimes: []float64{unit.Seconds()},
		run:        run,
		runWall:    runWall,
		events:     inner.Processed(),
		eventsHost: run,
		fp:         validate.Fingerprint(rep),
		out:        outcomeOf(rep),
		tr:         tr,
	}, nil
}

// twoTier is the paper's Fig. 5 NGINX→memcached model with netproc and
// connection pools under open-loop load, healthy, at full DES fidelity.
type twoTier struct {
	seed uint64
	sz   size
}

// build mirrors apps.TwoTier with Network enabled, but takes the engine
// through sim.Options.Engine so that the run can be traced.
func (w *twoTier) build(seed uint64, eng des.Runner) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed, Engine: eng})
	s.AddMachine("frontend", 20, cluster.DefaultFreqSpec)
	s.AddMachine("cache", 20, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(apps.Nginx(), sim.RoundRobin,
		sim.Placement{Machine: "frontend", Cores: 8}); err != nil {
		return nil, err
	}
	if _, err := s.Deploy(apps.Memcached(), sim.RoundRobin,
		sim.Placement{Machine: "cache", Cores: 4}); err != nil {
		return nil, err
	}
	if err := s.EnableNetwork(apps.DefaultNetwork()); err != nil {
		return nil, err
	}
	const conns = 320
	if err := s.SetTopology(&graph.Topology{
		Trees: []graph.Tree{{
			Name: "get", Weight: 1, Root: 0,
			Nodes: []graph.Node{
				{ID: 0, Service: "nginx", ServicePath: "rx", Instance: -1,
					Children: []int{1}, AcquireConn: []string{"client:nginx"}},
				{ID: 1, Service: "memcached", ServicePath: "memcached_read", Instance: -1,
					Children:    []int{2},
					AcquireConn: []string{"nginx:memcached"},
					ReleaseConn: []string{"nginx:memcached"}},
				{ID: 2, Service: "nginx", ServicePath: "tx", Instance: -1,
					ReleaseConn: []string{"client:nginx"}},
			},
		}},
		Pools: []graph.ConnPool{
			{Name: "client:nginx", Capacity: conns},
			{Name: "nginx:memcached", Capacity: 64},
		},
	}); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{
		Pattern:     workload.ConstantRate(w.sz.twoTierQPS),
		SizeKB:      dist.NewExponential(1),
		Connections: conns,
	})
	return s, nil
}

func (w *twoTier) unit(i int, log *spanLog) (*sample, error) {
	return runSim(unitSeed(w.seed, i), log, w.sz.twoTierSimTime, w.build)
}

// check runs apps.TwoTier, which builds its own engine, on the first
// unit's seed: the benchmark's copy of the model must match it exactly.
func (w *twoTier) check(units []*sample) error {
	first := units[0]
	s, err := apps.TwoTier(apps.TwoTierConfig{Seed: first.seed, QPS: w.sz.twoTierQPS, Network: true})
	if err != nil {
		return err
	}
	rep, err := s.Run(0, w.sz.twoTierSimTime)
	if err != nil {
		return err
	}
	if fp := validate.Fingerprint(rep); fp != first.fp {
		return fmt.Errorf("twotier-steady fingerprint differs from apps.TwoTier:\n  bench: %s\n  apps:  %s", first.fp, fp)
	}
	return nil
}

// hybridFlash is a million-user session population over a three-service
// chain at a 0.5% foreground sample, under a flash crowd, a retry policy
// on the leaf edge, a DVFS degrade and a short partition.
type hybridFlash struct {
	seed uint64
	sz   size
}

func (w *hybridFlash) build(seed uint64, eng des.Runner) (*sim.Sim, error) {
	users := w.sz.hybridUsers
	horizon := w.sz.hybridSimTime
	at := func(frac float64) des.Time { return des.Time(frac * float64(horizon)) }
	// Cores per million users give rho ≈ 0.4–0.45 at the base population
	// and ≈ 0.6–0.7 at the crowd's peak, with 1s of think time per step.
	cores := func(perMillion int) int {
		if k := perMillion * users / 1_000_000; k > 0 {
			return k
		}
		return 1
	}
	s := sim.New(sim.Options{Seed: seed, Engine: eng})
	dvfs := cluster.FreqSpec{MinMHz: 1000, MaxMHz: 2000, StepMHz: 100}
	chain := []struct {
		svc, machine string
		meanMs       float64
		cores        int
	}{
		{"front", "m0", 0.5, cores(1200)},
		{"mid", "m1", 1, cores(2200)},
		{"leaf", "m2", 2, cores(5000)},
	}
	for _, c := range chain {
		s.AddMachine(c.machine, c.cores, dvfs)
		bp := service.SingleStage(c.svc, dist.NewExponential(c.meanMs*float64(des.Millisecond)))
		if _, err := s.Deploy(bp, sim.RoundRobin, sim.Placement{Machine: c.machine, Cores: c.cores}); err != nil {
			return nil, err
		}
	}
	if err := s.SetTopology(graph.Linear("main", "front", "mid", "leaf")); err != nil {
		return nil, err
	}
	if err := s.SetServicePolicy("leaf", fault.Policy{
		Timeout: 25 * des.Millisecond, MaxRetries: 2,
		BackoffBase: des.Millisecond, BackoffJitter: 0.5,
	}); err != nil {
		return nil, err
	}
	think := dist.NewExponential(float64(des.Second))
	s.SetClient(sim.ClientConfig{Sessions: &workload.SessionConfig{
		Users: users,
		Journeys: []workload.Journey{{Name: "browse", Weight: 1, Steps: []workload.SessionStep{
			{Tree: 0, Think: think},
			{Tree: 0, Think: think},
		}}},
		// The crowd ramps for most of the run, so the population, and
		// with it the fluid tier's offered rate, changes every epoch.
		Crowds: []workload.FlashCrowd{{
			At: at(0.1), Extra: users / 2,
			RampUp: at(0.35), Hold: at(0.05), RampDown: at(0.4),
		}},
	}})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: at(0.3), Kind: fault.DegradeFreq, Machine: "m2", FreqMHz: 1700, Until: at(0.6)},
		{At: at(0.7), Kind: fault.PartitionStart,
			GroupA: []string{"m1"}, GroupB: []string{"m2"}, Until: at(0.72)},
	}}); err != nil {
		return nil, err
	}
	s.SetHybrid(hybrid.Config{SampleRate: 0.005})
	return s, nil
}

func (w *hybridFlash) unit(i int, log *spanLog) (*sample, error) {
	return runSim(unitSeed(w.seed, i), log, w.sz.hybridSimTime, w.build)
}

// check confirms the run exercised what the workload exists for: the
// fluid tier carried background traffic and the retry policy fired.
func (w *hybridFlash) check(units []*sample) error {
	out := units[0].out
	if out.bgArrivals == 0 || out.retries == 0 || out.completions == 0 {
		return fmt.Errorf("hybrid-flashcrowd: degenerate run (bg arrivals %d, retries %d, completions %d)",
			out.bgArrivals, out.retries, out.completions)
	}
	return nil
}

// chaosSearchSeed is the chaos workload's search seed. It is fixed: a
// trial that finds a violation shrinks it for seconds while a clean trial
// ends in a tenth of one, so trial sets drawn from different search seeds
// differ in cost far more than any change to the simulator would.
const chaosSearchSeed = 1

// plainRuns is the number of fault-free runs of the config before each
// trial.
const plainRuns = 4

// chaosSearch runs the first trials of a chaos.Harness search on a config
// directory, a batch per unit, each batch on a fresh harness. Before each
// trial it runs the config without faults; those plain runs take their
// simulation seeds from the workload seed and give the set-up time and
// request rate of the simulation the trials rebuild from JSON.
type chaosSearch struct {
	seed uint64
	sz   size

	docs   *config.BaseDocs
	faults []byte

	// sims collects every simulation created while a trial runs, so the
	// trial's events can be counted.
	sims []*sim.Sim
	// violationAt is the process CPU time, and violationWall the wall
	// time, at which the harness logged the start of shrinking.
	violationAt   time.Duration
	violationWall time.Time
}

func newChaosSearch(seed uint64, sz size) (*chaosSearch, error) {
	w := &chaosSearch{seed: seed, sz: sz}
	var err error
	if w.docs, err = config.ReadBase(sz.chaosConfig); err != nil {
		return nil, err
	}
	w.faults, err = os.ReadFile(filepath.Join(sz.chaosConfig, "faults.json"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return w, nil
}

// harness builds a search harness with default options and no corpus.
func (w *chaosSearch) harness() (*chaos.Harness, error) {
	return chaos.NewHarness(chaos.Options{
		ConfigDir: w.sz.chaosConfig,
		Seed:      chaosSearchSeed,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "VIOLATION") {
				w.violationAt, w.violationWall = cpuTime(), time.Now()
			}
		},
	})
}

// plain assembles the config from its JSON documents with the given
// simulation seed, runs it without faults and adds it to s.
func (w *chaosSearch) plain(seed uint64, s *sample) error {
	start := cpuTime()
	docs, err := w.docs.WithSeed(seed)
	if err != nil {
		return err
	}
	var faults [][]byte
	if w.faults != nil {
		faults = append(faults, w.faults)
	}
	setup, err := docs.Assemble(faults...)
	if err != nil {
		return err
	}
	var first time.Duration
	setup.Sim.Engine().Post(0, func(des.Time) { first = cpuTime() })
	rep, err := setup.Run()
	end := cpuTime()
	if err != nil {
		return err
	}
	if err := validate.Conservation(rep); err != nil {
		return err
	}
	s.setups = append(s.setups, (first - start).Seconds())
	s.reqRates = append(s.reqRates, float64(resolvedOf(rep))/(end-first).Seconds())
	if len(s.setups) == 1 {
		s.out = outcomeOf(rep)
	}
	return nil
}

func (w *chaosSearch) unit(i int, log *spanLog) (*sample, error) {
	h, err := w.harness()
	if err != nil {
		return nil, err
	}
	s := &sample{seed: unitSeed(w.seed, i)}
	sim.OnNew = func(sm *sim.Sim) { w.sims = append(w.sims, sm) }
	defer func() { sim.OnNew = nil }()
	for k := 0; k < w.sz.chaosTrials; k++ {
		// A trial leaves a large heap behind; collect it first, so that
		// the short plain runs do not pay for the trial's garbage.
		runtime.GC()
		for p := 0; p < plainRuns; p++ {
			if err := w.plain(unitSeed(s.seed, k*plainRuns+p), s); err != nil {
				return nil, err
			}
		}
		if err := w.trial(h, k, s, log); err != nil {
			return nil, err
		}
	}
	s.eventsHost = s.unit
	return s, nil
}

// trial runs trial k on h and adds it to s.
func (w *chaosSearch) trial(h *chaos.Harness, k int, s *sample, log *spanLog) error {
	w.sims = w.sims[:0]
	w.violationAt = 0
	var trialID int
	if log != nil {
		trialID = log.open(0, "chaos.trial")
	}
	start := cpuTime()
	tr, err := h.Trial(k)
	end := cpuTime()
	if err != nil {
		return err
	}
	// The trial splits at the harness's "VIOLATION … shrinking" log line:
	// generation and verification before it, shrinking after.
	verify, shrink := end-start, time.Duration(0)
	if w.violationAt > 0 {
		verify, shrink = w.violationAt-start, end-w.violationAt
	}
	if log != nil {
		log.close(trialID)
		t0, t1 := log.spans[trialID-1].Start, log.spans[trialID-1].End
		if shrink > 0 {
			tv := int64(w.violationWall.Sub(log.epoch))
			log.add(trialID, "chaos.verify", t0, tv)
			log.add(trialID, "chaos.shrink", tv, t1)
		} else {
			log.add(trialID, "chaos.verify", t0, t1)
		}
	}
	s.unit += end - start
	s.trialTimes = append(s.trialTimes, (end - start).Seconds())
	s.verify += verify
	s.shrink += shrink
	for _, ss := range w.sims {
		s.events += ss.Engine().Processed()
	}
	s.explored += tr.Events
	s.fp += fmt.Sprintf("trial %d events %d;", k, tr.Events)
	if f := tr.Finding; f != nil {
		s.findings++
		s.shrunk += f.Events
		s.fp += fmt.Sprintf(" finding %s %d->%d;", f.Violation, f.EventsBefore, f.Events)
	}
	return nil
}

// check compares the batches: a trial is a pure function of the search
// seed and its index, so every batch must find the same violations and
// shrink them to the same sizes. (A traced run also compares each batch
// with its traced repeat.)
func (w *chaosSearch) check(units []*sample) error {
	for i, u := range units[1:] {
		if u.fp != units[0].fp {
			return fmt.Errorf("chaos-metastable batch %d differs from batch 0:\n  batch 0: %s\n  batch %d: %s",
				i+1, units[0].fp, i+1, u.fp)
		}
	}
	return nil
}

// newRunner builds the named workload at the given seed and size.
func newRunner(name string, seed uint64, sz size) (runner, error) {
	switch name {
	case "twotier-steady":
		return &twoTier{seed: seed, sz: sz}, nil
	case "hybrid-flashcrowd":
		return &hybridFlash{seed: seed, sz: sz}, nil
	case "chaos-metastable":
		return newChaosSearch(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want twotier-steady, chaos-metastable or hybrid-flashcrowd)", name)
}
