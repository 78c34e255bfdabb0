package uqsim

// Hybrid-fidelity speedup benchmark: how many simulated user-seconds per
// wall-clock second the engine sustains at full fidelity versus a sampled
// foreground over a fluid background. `make bench-hybrid` records the
// result in BENCH_hybrid.json; the speedup_x metric is the committed
// trajectory point for the "million-user workloads" claim.

import (
	"runtime"
	"testing"
	"time"
)

// hybridBenchSim assembles a session population over one exponential
// service sized for rho ≈ 0.6 at 4 cores per 242 users.
func hybridBenchSim(b *testing.B, users, cores int, hc *HybridConfig) *Sim {
	b.Helper()
	s := New(Options{Seed: 42})
	s.AddMachine("m0", cores, DefaultFreqSpec)
	if _, err := s.Deploy(SingleStageService("front", Exponential(10*Millisecond)),
		RoundRobin, Placement{Machine: "m0", Cores: cores}); err != nil {
		b.Fatal(err)
	}
	if err := s.SetTopology(LinearTopology("main", "front")); err != nil {
		b.Fatal(err)
	}
	s.SetClient(ClientConfig{Sessions: &SessionConfig{
		Users: users,
		Journeys: []Journey{{Name: "browse", Weight: 1, Steps: []SessionStep{
			{Tree: 0, Think: Exponential(Second)},
			{Tree: 0, Think: Exponential(Second)},
		}}},
	}})
	if hc != nil {
		s.SetHybrid(*hc)
	}
	return s
}

func BenchmarkHybridFidelity(b *testing.B) {
	const (
		baseUsers = 242
		baseCores = 4
		bigUsers  = 100_000
	)
	grow := bigUsers / baseUsers
	for i := 0; i < b.N; i++ {
		full := hybridBenchSim(b, baseUsers, baseCores, nil)
		start := time.Now()
		if _, err := full.Run(Second, 5*Second); err != nil {
			b.Fatal(err)
		}
		fullWall := time.Since(start)

		sampled := hybridBenchSim(b, bigUsers, baseCores*grow,
			&HybridConfig{SampleRate: float64(baseUsers) / bigUsers})
		start = time.Now()
		rep, err := sampled.Run(Second, 5*Second)
		if err != nil {
			b.Fatal(err)
		}
		hybWall := time.Since(start)
		if rep.BackgroundArrivals != rep.BackgroundCompletions+rep.BackgroundShed {
			b.Fatalf("background conservation: %d != %d + %d",
				rep.BackgroundArrivals, rep.BackgroundCompletions, rep.BackgroundShed)
		}

		fullRate := baseUsers / fullWall.Seconds()
		hybRate := bigUsers / hybWall.Seconds()
		b.ReportMetric(fullRate, "full_users_s/op")
		b.ReportMetric(hybRate, "hybrid_users_s/op")
		b.ReportMetric(hybRate/fullRate, "speedup_x")
	}
}

// hybridFlashSim assembles a million-user session population over a
// front → mid → leaf chain at a 0.5% foreground sample: a flash crowd of
// half a million extra users ramps up and back down over most of the run,
// the leaf edge retries on timeout and the leaf machine is underclocked
// mid-run, so the fluid tier's offered rate changes every epoch.
func hybridFlashSim(b *testing.B, horizon Time) *Sim {
	b.Helper()
	const users = 1_000_000
	at := func(frac float64) Time { return Time(frac * float64(horizon)) }
	s := New(Options{Seed: 42})
	for _, c := range []struct {
		svc, machine string
		mean         Time
		cores        int
	}{
		{"front", "m0", Millisecond / 2, 1200},
		{"mid", "m1", Millisecond, 2200},
		{"leaf", "m2", 2 * Millisecond, 5000},
	} {
		s.AddMachine(c.machine, c.cores, DefaultFreqSpec)
		if _, err := s.Deploy(SingleStageService(c.svc, Exponential(c.mean)),
			RoundRobin, Placement{Machine: c.machine, Cores: c.cores}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.SetTopology(LinearTopology("main", "front", "mid", "leaf")); err != nil {
		b.Fatal(err)
	}
	if err := s.SetServicePolicy("leaf", ResiliencePolicy{
		Timeout: 25 * Millisecond, MaxRetries: 2, BackoffBase: Millisecond, BackoffJitter: 0.5,
	}); err != nil {
		b.Fatal(err)
	}
	s.SetClient(ClientConfig{Sessions: &SessionConfig{
		Users: users,
		Journeys: []Journey{{Name: "browse", Weight: 1, Steps: []SessionStep{
			{Tree: 0, Think: Exponential(Second)},
			{Tree: 0, Think: Exponential(Second)},
		}}},
		Crowds: []FlashCrowd{{
			At: at(0.1), Extra: users / 2,
			RampUp: at(0.35), Hold: at(0.05), RampDown: at(0.4),
		}},
	}})
	if err := s.InstallFaults(FaultPlan{Events: []FaultEvent{
		{At: at(0.3), Kind: DegradeFreq, Machine: "m2", FreqMHz: 2000, Until: at(0.6)},
	}}); err != nil {
		b.Fatal(err)
	}
	s.SetHybrid(HybridConfig{SampleRate: 0.005})
	return s
}

// BenchmarkHybridFlashCrowd measures the hybrid session hot path: spawning
// and retiring a million session users and re-solving the fluid
// equilibrium every epoch. req/s counts every resolved request,
// foreground and background, per wall-clock second of Run; allocs/event
// is heap allocations per processed DES event.
func BenchmarkHybridFlashCrowd(b *testing.B) {
	const horizon = 2 * Second
	for i := 0; i < b.N; i++ {
		s := hybridFlashSim(b, horizon)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rep, err := s.Run(0, horizon)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		if rep.BackgroundArrivals == 0 || rep.Completions == 0 {
			b.Fatalf("degenerate run: background arrivals %d, completions %d", rep.BackgroundArrivals, rep.Completions)
		}
		resolved := float64(rep.Completions + rep.BackgroundArrivals)
		b.ReportMetric(resolved/wall.Seconds(), "req/s")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(s.Engine().Processed()), "allocs/event")
	}
}
