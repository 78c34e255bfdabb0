// Command uqsim-sweep measures the load–latency curve of a configured
// simulation: it re-runs the scenario across a grid of offered loads and
// prints one row per load (the data behind every figure in the paper's
// validation). The same points can be fanned out across worker processes
// with cmd/uqsim-farm; both paths produce byte-identical rows.
//
// Usage:
//
//	uqsim-sweep -config configs/twotier -from 5000 -to 80000 -step 5000
//
// Exit codes: 0 completed, 1 interrupted or failed (rows already printed
// are complete), 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
	"uqsim/internal/sim"
)

func main() {
	cfgDir := flag.String("config", "", "directory with machines/service/graph/path/client.json")
	from := flag.Float64("from", 5000, "first offered load (QPS)")
	to := flag.Float64("to", 50000, "last offered load (QPS)")
	step := flag.Float64("step", 5000, "load increment (QPS)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, print the partial table, exit nonzero")
	progress := flag.Bool("progress", false, "report each completed point on stderr")
	fidelity := flag.String("fidelity", "", `override the engine fidelity for every point: "full" or "hybrid"`)
	sampleRate := flag.Float64("sample-rate", 0, "hybrid foreground sample fraction in (0,1]")
	flag.Parse()

	if *cfgDir == "" {
		fmt.Fprintln(os.Stderr, "uqsim-sweep: -config is required")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if *step <= 0 || *to < *from {
		fmt.Fprintln(os.Stderr, "uqsim-sweep: need step > 0 and to >= from")
		os.Exit(cli.ExitUsage)
	}
	os.Exit(run(*cfgDir, *from, *to, *step, *csv, *maxWall, *progress, *fidelity, *sampleRate))
}

func run(cfgDir string, from, to, step float64, csv bool, maxWall time.Duration, progress bool, fidelity string, sampleRate float64) int {
	wd := cli.StartWatchdog(maxWall)
	t := experiments.SweepTable(cfgDir)
	grid := experiments.SweepGrid(from, to, step)
	var mod func(*sim.Sim) error
	if fidelity != "" || sampleRate != 0 {
		mod = func(s *sim.Sim) error { return config.ApplyFidelity(s, fidelity, sampleRate) }
	}
	for i, qps := range grid {
		if wd.Interrupted() {
			break
		}
		row, err := experiments.SweepRow(cfgDir, qps, mod)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uqsim-sweep:", err)
			return cli.ExitPartial
		}
		// A signal mid-run stops the simulation early; that point's row
		// reflects a truncated window, so drop it and keep the clean rows.
		if wd.Interrupted() {
			break
		}
		t.Add(row...)
		if progress {
			fmt.Fprintf(os.Stderr, "uqsim-sweep: point %d/%d (%.0f qps) done\n", i+1, len(grid), qps)
		}
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	if wd.Interrupted() {
		fmt.Fprintf(os.Stderr, "uqsim-sweep: PARTIAL: interrupted (%s) after %d/%d points; rows printed are complete\n",
			wd.Reason(), len(t.Rows), len(grid))
		return cli.ExitPartial
	}
	return cli.ExitOK
}
