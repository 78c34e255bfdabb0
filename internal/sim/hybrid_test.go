package sim

import (
	"math"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/hybrid"
)

// TestClosedPopulationRateTotalOutage: when every replica of a modeled
// service is down (total outage under a fault plan) the closed fixed point
// must report zero throughput — not an unbounded capacity that leaks +Inf
// into the fluid tier's accrual and snapshot conversion.
func TestClosedPopulationRateTotalOutage(t *testing.T) {
	dead := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 0 }},
	}
	if got := closedPopulationRate(1000, 0.1, dead); got != 0 {
		t.Fatalf("total outage rate = %v, want 0", got)
	}
	mixed := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 4 }},
		{Name: "db", Visits: 2, MeanServiceS: 0.005, Servers: func() int { return 0 }},
	}
	if got := closedPopulationRate(1000, 0.1, mixed); got != 0 {
		t.Fatalf("required-service outage rate = %v, want 0", got)
	}
	healthy := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 4 }},
	}
	got := closedPopulationRate(1000, 0.1, healthy)
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("healthy rate = %v, want finite positive", got)
	}
	if bottleneck := 4.0 / 0.010; got > bottleneck {
		t.Fatalf("healthy rate %v exceeds bottleneck capacity %v", got, bottleneck)
	}
}

// TestClosedPopulationRateRegimes checks the closed fixed point on one
// M/M/k service: bounded by both the population limit n/(Z+E[S]) and the
// bottleneck capacity k/E[S], approaching each in the appropriate regime,
// and solving its own defining equation on the interior.
func TestClosedPopulationRateRegimes(t *testing.T) {
	const es = 0.010 // 10 ms service, mu = 100
	one := func(k int) []hybrid.Service {
		return []hybrid.Service{{Name: "svc", Visits: 1, MeanServiceS: es, Servers: func() int { return k }}}
	}
	// Degenerate inputs.
	for _, c := range []struct {
		n, think float64
		k        int
	}{
		{0, 1, 4}, {-5, 1, 4}, {100, 1, 0}, {100, -1, 4},
	} {
		if got := closedPopulationRate(c.n, c.think, one(c.k)); got != 0 {
			t.Errorf("closedPopulationRate(%v, %v, k=%d) = %v, want 0", c.n, c.think, c.k, got)
		}
	}
	// Light population: rate ~ n/(Z+E[S]) (negligible queueing).
	got := closedPopulationRate(10, 1, one(16))
	want := 10 / (1 + es)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("light closed rate %v, want ~%v", got, want)
	}
	// Huge population: rate pinned just inside bottleneck capacity k/E[S].
	capacity := 4 / es
	got = closedPopulationRate(1e6, 0.1, one(4))
	if got > capacity || got < 0.99*capacity {
		t.Errorf("saturated closed rate %v, want within [0.99, 1]·%v", got, capacity)
	}
	// Interior: the fixed point satisfies lambda·(Z + E[S] + Wq(lambda)) = n.
	n, think, k := 300.0, 1.0, 4
	lam := closedPopulationRate(n, think, one(k))
	w := analytic.MMkMeanWait(lam, 1/es, k)
	if analytic.IsSaturated(w) {
		t.Fatalf("interior fixed point saturated: lambda=%v", lam)
	}
	if resid := lam*(think+es+w) - n; math.Abs(resid) > 0.01*n {
		t.Errorf("fixed point residual %v at lambda=%v (n=%v)", resid, lam, n)
	}
}

// TestHybridRunLeavesClientPatternUnthinned: Run thins the pattern it
// runs, not the stored client config — a second hybrid run on the same Sim
// would otherwise thin the arrival rate twice (rate · sampleRate²).
func TestHybridRunLeavesClientPatternUnthinned(t *testing.T) {
	const qps = 200.0
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 4, qps)
	s.SetHybrid(hybrid.Config{SampleRate: 0.25})
	r, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.clientCfg.Pattern.RateAt(0); got != qps {
		t.Fatalf("stored client pattern rate = %v after hybrid run, want %v (must stay unthinned)", got, qps)
	}
	// The generator itself did run thinned: ~sampleRate·qps foreground
	// arrivals over the second, nowhere near the full rate.
	if r.Arrivals == 0 || float64(r.Arrivals) > 0.5*qps {
		t.Fatalf("foreground arrivals %d, want ~%v (thinned)", r.Arrivals, 0.25*qps)
	}
}
