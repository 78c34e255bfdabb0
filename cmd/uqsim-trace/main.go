// Command uqsim-trace runs a configured simulation with request tracing
// enabled and prints the waterfalls of the slowest sampled requests — the
// microservices-debugging workflow the paper motivates (which tier on the
// critical path caused the tail?).
//
// Usage:
//
//	uqsim-trace -config configs/threetier -slowest 5 -sample 4
//
// Exit codes: 0 completed, 1 interrupted or failed (an interrupted run
// still reports the traces collected so far), 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/trace"
)

func main() {
	cfgDir := flag.String("config", "", "directory with machines/service/graph/path/client.json")
	slowest := flag.Int("slowest", 3, "how many slowest requests to print")
	sample := flag.Int("sample", 1, "trace one of every N requests")
	qps := flag.Float64("qps", 0, "override the client's constant offered load (QPS)")
	duration := flag.Duration("duration", 0, "override the configured virtual measurement window")
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, print traces collected so far, exit nonzero")
	flag.Parse()

	if *cfgDir == "" {
		fmt.Fprintln(os.Stderr, "uqsim-trace: -config is required")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	os.Exit(run(*cfgDir, *slowest, *sample, *qps, *duration, *maxWall))
}

func run(cfgDir string, slowest, sample int, qps float64, duration, maxWall time.Duration) int {
	wd := cli.StartWatchdog(maxWall)
	setup, err := config.LoadDir(cfgDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uqsim-trace:", err)
		return cli.ExitPartial
	}
	if qps > 0 {
		setup.SetQPS(qps)
	}
	if duration > 0 {
		setup.Duration = des.Time(duration)
	}
	tr := trace.New(sample)
	tr.MaxTraces = 65536
	setup.Sim.OnJobDone = tr.OnJobDone
	setup.Sim.OnRequestDone = tr.OnRequestDone

	rep, err := setup.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "uqsim-trace:", err)
		return cli.ExitPartial
	}
	fmt.Printf("completions=%d p50=%v p99=%v traced=%d\n\n",
		rep.Completions, rep.Latency.P50(), rep.Latency.P99(), len(tr.Traces()))

	fmt.Printf("--- %d slowest traced requests ---\n", slowest)
	counts := map[string]int{}
	for _, r := range tr.Traces() {
		if crit, ok := r.CriticalSpan(); ok {
			counts[crit.Service]++
		}
	}
	for _, r := range tr.Slowest(slowest) {
		fmt.Println(r.Waterfall())
		if crit, ok := r.CriticalSpan(); ok {
			fmt.Printf("  → critical tier: %s (%v of %v)\n\n",
				crit.Service, crit.Residence(), r.Latency())
		}
	}
	fmt.Println("critical-tier frequency across all traces:")
	for svc, n := range counts {
		fmt.Printf("  %-14s %d\n", svc, n)
	}
	if wd.Interrupted() {
		fmt.Fprintf(os.Stderr, "uqsim-trace: PARTIAL: interrupted (%s); traces above cover the truncated run\n", wd.Reason())
		return cli.ExitPartial
	}
	return cli.ExitOK
}
