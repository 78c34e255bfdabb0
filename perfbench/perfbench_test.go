package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"uqsim/internal/des"
)

// tinySize shrinks every workload so that the whole test takes seconds.
var tinySize = size{
	twoTierQPS:     4000,
	twoTierSimTime: 50 * des.Millisecond,
	hybridUsers:    100_000,
	hybridSimTime:  des.Second,
	chaosConfig:    "../configs/metastable",
	chaosTrials:    1,
}

// spec is the part of BENCHMARK.json the test checks the output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced and
// traced, and checks that the run is correct and prints exactly the
// metrics BENCHMARK.json names, with their units.
func TestEveryMetricPrinted(t *testing.T) {
	sp := readSpec(t)
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 0.001, trace: trace, out: t.TempDir(), sz: tinySize}
			res, err := bench(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
					w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTracingKeepsOutput checks that a unit run through the tracer
// produces the same output as the same unit untraced.
func TestTracingKeepsOutput(t *testing.T) {
	for _, name := range []string{"twotier-steady", "hybrid-flashcrowd", "chaos-metastable"} {
		var fps [2]string
		for i, log := range []*spanLog{nil, newSpanLog()} {
			r, err := newRunner(name, 3, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			s, err := r.unit(0, log)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fps[i] = s.fp
		}
		if fps[0] == "" || fps[0] != fps[1] {
			t.Errorf("%s: traced output differs from untraced:\n  untraced: %s\n  traced:   %s", name, fps[0], fps[1])
		}
	}
}
