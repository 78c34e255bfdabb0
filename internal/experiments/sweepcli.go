package experiments

import (
	"fmt"

	"uqsim/internal/config"
	"uqsim/internal/sim"
)

// This file is the shared core of the load-sweep workflow: cmd/uqsim-sweep
// runs these points serially, and the farm (internal/farm) fans the same
// points out across worker processes. Both paths must produce identical
// rows, byte for byte — the farm's determinism contract is that a merged
// campaign CSV equals the serial CLI's output at any worker count.

// SweepColumns is the header of a load-sweep table.
func SweepColumns() []string {
	return []string{"offered_qps", "goodput_qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "in_flight"}
}

// SweepGrid expands the inclusive load grid [from, to] in step increments,
// exactly as the serial CLI iterates it. Both the farm's campaign
// expansion and cmd/uqsim-sweep call this, so a sweep point is the same
// float64 in either path.
func SweepGrid(from, to, step float64) []float64 {
	var out []float64
	for qps := from; qps <= to+1e-9; qps += step {
		out = append(out, qps)
	}
	return out
}

// SweepRow measures one load point of the configured scenario and formats
// it as a table row in SweepColumns order. Each point assembles a fresh
// simulation from the config directory (same seed, same windows), so rows
// are independent: any subset can run anywhere, in any order, and still
// match a serial sweep. A non-nil mod adjusts the assembled simulation
// before it runs (fidelity overrides, attached monitors); the
// byte-identical serial-vs-farm contract extends to any deterministic mod
// applied equally on both paths.
func SweepRow(cfgDir string, qps float64, mod func(*sim.Sim) error) ([]string, error) {
	setup, err := config.LoadDir(cfgDir)
	if err != nil {
		return nil, err
	}
	setup.SetQPS(qps)
	if mod != nil {
		if err := mod(setup.Sim); err != nil {
			return nil, err
		}
	}
	rep, err := setup.Sim.Run(setup.Warmup, setup.Duration)
	if err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("%.0f", qps),
		fmt.Sprintf("%.0f", rep.GoodputQPS),
		fmt.Sprintf("%.3f", rep.Latency.Mean().Millis()),
		fmt.Sprintf("%.3f", rep.Latency.P50().Millis()),
		fmt.Sprintf("%.3f", rep.Latency.P95().Millis()),
		fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
		fmt.Sprintf("%d", rep.InFlight),
	}, nil
}

// SweepTable builds the table cmd/uqsim-sweep prints, ready for rows from
// SweepRow.
func SweepTable(cfgDir string) *Table {
	return NewTable(fmt.Sprintf("Load sweep of %s", cfgDir), SweepColumns()...)
}
