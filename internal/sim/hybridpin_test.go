package sim_test

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// hybridFlashPin is the fingerprint of the run below. The fixed points'
// early stop and the session-order compaction are pure speedups, so a
// change to this string means the simulator computes something different.
const hybridFlashPin = "arr=1162 comp=958 to=0 shed=0 drop=197 ddl=0 brk=0 retry=537 hedge=0/0 cancel=0 waste=734 inflight=7" +
	" unreach=0 ldrop=0 ldup=0 xr=0 stale=0 mean=4.201ms p50=3.471ms p99=15.946ms" +
	" leaf={Timeouts:734 Shed:0 Dropped:0 BreakerOpen:0 Retries:537 Hedges:0 Unreachable:0}" +
	" front-0:1161/0/0/0/0 mid-0:1159/0/0/0/0 leaf-0:1692/0/0/0/734 bg=23163/23163/0/0"

// TestHybridFlashCrowdFingerprintPinned runs a small session population
// through a three-service chain at a 5% foreground sample while a flash
// crowd ramps it up and back down, the leaf edge retries on timeout and
// the leaf machine is underclocked mid-run. It exercises every path of
// the hybrid session tier — closed fixed point, retry amplification,
// spawn and retire — and pins the report bit-for-bit.
func TestHybridFlashCrowdFingerprintPinned(t *testing.T) {
	s := sim.New(sim.Options{Seed: 7})
	dvfs := cluster.FreqSpec{MinMHz: 1000, MaxMHz: 2000, StepMHz: 100}
	for _, c := range []struct {
		svc, machine string
		meanMs       float64
		cores        int
	}{
		{"front", "m0", 0.5, 24},
		{"mid", "m1", 1, 44},
		{"leaf", "m2", 2, 100},
	} {
		s.AddMachine(c.machine, c.cores, dvfs)
		bp := service.SingleStage(c.svc, dist.NewExponential(c.meanMs*float64(des.Millisecond)))
		if _, err := s.Deploy(bp, sim.RoundRobin, sim.Placement{Machine: c.machine, Cores: c.cores}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTopology(graph.Linear("main", "front", "mid", "leaf")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("leaf", fault.Policy{
		Timeout: 5 * des.Millisecond, MaxRetries: 2,
		BackoffBase: des.Millisecond, BackoffJitter: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	think := dist.NewExponential(float64(des.Second))
	s.SetClient(sim.ClientConfig{Sessions: &workload.SessionConfig{
		Users: 20_000,
		Journeys: []workload.Journey{{Name: "browse", Weight: 1, Steps: []workload.SessionStep{
			{Tree: 0, Think: think},
			{Tree: 0, Think: think},
		}}},
		Crowds: []workload.FlashCrowd{{
			At: 100 * des.Millisecond, Extra: 10_000,
			RampUp: 300 * des.Millisecond, Hold: 100 * des.Millisecond, RampDown: 400 * des.Millisecond,
		}},
	}})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 300 * des.Millisecond, Kind: fault.DegradeFreq, Machine: "m2", FreqMHz: 1200, Until: 700 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	s.SetHybrid(hybrid.Config{SampleRate: 0.05})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 || rep.BackgroundArrivals == 0 {
		t.Fatalf("degenerate run: retries %d, background arrivals %d", rep.Retries, rep.BackgroundArrivals)
	}
	if got := validate.Fingerprint(rep); got != hybridFlashPin {
		t.Fatalf("fingerprint moved:\n got: %s\nwant: %s", got, hybridFlashPin)
	}
}
