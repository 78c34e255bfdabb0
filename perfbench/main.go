// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed host-time budget, checks every unit of work it
// runs, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload twotier-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same units untraced and then traced through
// a des.Runner decorator, prints the per-layer metrics, and writes the
// traced run's spans and CPU profile under --out. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	sz       size
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: twotier-steady, chaos-metastable or hybrid-flashcrowd")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (simulation seeds, or the chaos search seed, derive from it)")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	flag.StringVar(&o.out, "out", filepath.Join("perfbench", "out"), "directory for the traced run's spans and CPU profile")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.sz = fullSize
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs the workload and returns its result. Failed units are
// counted, not returned; an error means the benchmark could not run.
func bench(o options, info io.Writer) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	r, err := newRunner(o.workload, o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The traced pass repeats the untraced units and runs longer, so
		// the untraced pass gets part of the budget.
		budget = budget * 2 / 5
	}
	res := &result{Metrics: make(map[string]metric)}
	runtime.GC()
	gc0 := readGC()
	plain := runUnits(r, budget, -1, nil, res)
	gc1 := readGC()
	if len(plain) == 0 {
		return nil, errors.New("no unit completed")
	}
	res.Attempted++
	if err := r.check(plain); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
		res.Failed++
	}
	fmt.Fprintf(info, "units %d (first unit seed %d)\n", len(plain), plain[0].seed)

	if !o.trace {
		endToEnd(res, plain)
	} else {
		// A fresh runner, so the traced units start from the same state
		// (the chaos harness memoizes baselines across trials).
		tr, err := newRunner(o.workload, o.seed, o.sz)
		if err != nil {
			return nil, err
		}
		traced, log, err := tracedPass(o, tr, len(plain), res)
		if err != nil {
			return nil, err
		}
		checkTraced(res, plain, traced)
		perLayer(res, plain, traced, gc1.sub(gc0))
		if err := writeSpans(o, log, traced); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runUnits runs units 0, 1, … until budget is spent (n < 0) or exactly n
// units. A unit that errors is counted as failed and skipped.
func runUnits(r runner, budget time.Duration, n int, log *spanLog, res *result) []*sample {
	var out []*sample
	start := time.Now()
	for i := 0; n >= 0 && i < n || n < 0 && (i == 0 || time.Since(start) < budget); i++ {
		res.Attempted++
		s, err := r.unit(i, log)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: unit %d: %v\n", i, err)
			res.Failed++
			continue
		}
		out = append(out, s)
	}
	return out
}

// tracedPass runs the first n units again, through the tracer and under
// a CPU profile written to o.out.
func tracedPass(o options, r runner, n int, res *result) ([]*sample, *spanLog, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	prof, err := os.Create(filepath.Join(o.out, outName(o, "cpu.pprof")))
	if err != nil {
		return nil, nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	log := newSpanLog()
	traced := runUnits(r, 0, n, log, res)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	return traced, log, nil
}

func outName(o options, suffix string) string {
	return fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, suffix)
}

// median returns the median of f over the samples.
func median(ss []*sample, f func(*sample) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// endToEnd fills the metrics of an untraced run.
func endToEnd(res *result, ss []*sample) {
	var setups, rates []float64
	for _, s := range ss {
		setups = append(setups, s.setups...)
		rates = append(rates, s.reqRates...)
	}
	res.Metrics["sim_req_per_s"] = metric{medianOf(rates), "1/s"}
	res.Metrics["chaos_trial_s"] = metric{trialSeconds(ss), "s"}
	res.Metrics["setup_s"] = metric{medianOf(setups), "s"}
	res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
}

// trialSeconds is the mean over a unit's trials of each trial's median
// host time across the units. Every unit of a run repeats the same
// trials, so the median discards a repetition that the host slowed.
func trialSeconds(ss []*sample) float64 {
	n := len(ss[0].trialTimes)
	sum := 0.0
	for k := 0; k < n; k++ {
		var v []float64
		for _, s := range ss {
			if k < len(s.trialTimes) {
				v = append(v, s.trialTimes[k])
			}
		}
		sum += medianOf(v)
	}
	return sum / float64(n)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcStats is a runtime/metrics snapshot of allocation and GC work.
type gcStats struct {
	allocs, bytes, cycles, gcCPU, totalCPU float64
}

var gcMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return gcStats{allocs: v[0], bytes: v[1], cycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

func (a gcStats) sub(b gcStats) gcStats {
	return gcStats{a.allocs - b.allocs, a.bytes - b.bytes, a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
