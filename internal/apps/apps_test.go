package apps

import (
	"math"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/service"
	"uqsim/internal/sim"
)

// capacity measures sustained goodput under 2× overload — the saturation
// throughput of the configuration.
func capacity(t *testing.T, build func(qps float64) (*sim.Sim, error), overload float64) float64 {
	t.Helper()
	s, err := build(overload)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(200*des.Millisecond, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	return rep.GoodputQPS
}

// runAt returns the report of one run at the given load.
func runAt(t *testing.T, build func(qps float64) (*sim.Sim, error), qps float64, warm, dur des.Time) *sim.Report {
	t.Helper()
	s, err := build(qps)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(warm, dur)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBlueprintsValidate(t *testing.T) {
	for _, bp := range []interface{ Validate() error }{
		Memcached(), Nginx(), NginxProxy(4), MongoDB(0.3, 8),
		ThriftServer("t", 15), SimpleServer("s", 1000),
	} {
		if err := bp.Validate(); err != nil {
			t.Errorf("blueprint invalid: %v", err)
		}
	}
}

// TestBigHouseCollapse: the BigHouse model of a path is one stage on one
// path whose cost mean is the whole path's: every stage's base and per-job
// mean plus its per-KB cost at the mean request size.
func TestBigHouseCollapse(t *testing.T) {
	for _, bp := range []*service.Blueprint{Memcached(), Nginx()} {
		for pi := range bp.Paths {
			for _, kb := range []float64{0, 0.6} {
				bh := BigHouse(bp, pi, kb)
				if err := bh.Validate(); err != nil {
					t.Fatal(err)
				}
				if len(bh.Stages) != 1 || len(bh.Paths) != 1 {
					t.Fatalf("%s path %d: %d stages, %d paths, want 1 and 1", bp.Name, pi, len(bh.Stages), len(bh.Paths))
				}
				want := 0.0
				for _, si := range bp.Paths[pi].Stages {
					st := bp.Stages[si]
					if st.Base != nil {
						want += st.Base.Mean()
					}
					if st.PerJob != nil {
						want += st.PerJob.Mean()
					}
					want += st.PerKB * kb
				}
				if got := bh.Stages[0].PerJob.Mean(); math.Abs(got-want) > 1e-9*want {
					t.Fatalf("%s path %d at %v KB: cost mean %v, want %v", bp.Name, pi, kb, got, want)
				}
			}
		}
	}
}

// TestBigHouseSaturatesAtCapacity: past saturation the BigHouse model's
// goodput holds at its G/G/k capacity k/E[S] instead of falling as the
// backlog grows.
func TestBigHouseSaturatesAtCapacity(t *testing.T) {
	bh := BigHouse(Nginx(), 0, 0.6)
	capacity := 1e9 / bh.Stages[0].PerJob.Mean() // one core
	s, err := SingleService(bh, "default", 1, 2*capacity, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(300*des.Millisecond, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.GoodputQPS-capacity)/capacity > 0.02 {
		t.Fatalf("goodput %v at 2× offered load, want ≈ capacity %v", rep.GoodputQPS, capacity)
	}
}

func twoTierBuilder(nginxCores, mcThreads int) func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return TwoTier(TwoTierConfig{
			Seed: 7, QPS: qps,
			NginxCores: nginxCores, MemcachedThreads: mcThreads,
			Network: true,
		})
	}
}

func TestTwoTierLowLoadLatency(t *testing.T) {
	rep := runAt(t, twoTierBuilder(8, 4), 1000, 200*des.Millisecond, des.Second)
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	mean := rep.Latency.Mean()
	if mean < 50*des.Microsecond || mean > des.Millisecond {
		t.Fatalf("2-tier low-load mean latency %v, want O(100µs)", mean)
	}
	p99 := rep.Latency.P99()
	if p99 < mean || p99 > 5*des.Millisecond {
		t.Fatalf("2-tier low-load p99 %v", p99)
	}
	// Both tiers contribute.
	if rep.PerTier["nginx"] == nil || rep.PerTier["memcached"] == nil {
		t.Fatal("per-tier histograms missing")
	}
	if rep.PerTier["nginx"].Mean() < rep.PerTier["memcached"].Mean() {
		t.Fatal("NGINX should dominate per-request time (paper: NGINX is the bottleneck)")
	}
}

func TestTwoTierNginxScalingSetsCapacity(t *testing.T) {
	cap8 := capacity(t, twoTierBuilder(8, 4), 150000)
	cap4 := capacity(t, twoTierBuilder(4, 2), 150000)
	if cap8 < 1.6*cap4 || cap8 > 2.4*cap4 {
		t.Fatalf("8-proc capacity %v vs 4-proc %v: want ≈2×", cap8, cap4)
	}
	// Paper Fig. 5: more memcached threads do NOT raise throughput —
	// NGINX is the limiting tier.
	cap8mc2 := capacity(t, twoTierBuilder(8, 2), 150000)
	if math.Abs(cap8-cap8mc2)/cap8 > 0.1 {
		t.Fatalf("memcached threads changed capacity: %v vs %v", cap8, cap8mc2)
	}
}

func TestTwoTierSaturationKnee(t *testing.T) {
	cap8 := capacity(t, twoTierBuilder(8, 4), 150000)
	// Below the knee: latency modest; beyond: latency explodes.
	below := runAt(t, twoTierBuilder(8, 4), cap8*0.7, 200*des.Millisecond, des.Second)
	above := runAt(t, twoTierBuilder(8, 4), cap8*1.2, 200*des.Millisecond, des.Second)
	if below.Latency.P99() > 20*des.Millisecond {
		t.Fatalf("p99 below knee %v, too high", below.Latency.P99())
	}
	if above.Latency.P99() < 10*below.Latency.P99() {
		t.Fatalf("p99 above knee %v vs below %v: want explosion",
			above.Latency.P99(), below.Latency.P99())
	}
}

func threeTierBuilder() func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return ThreeTier(ThreeTierConfig{Seed: 7, QPS: qps, Network: true})
	}
}

func TestThreeTierDiskBound(t *testing.T) {
	rep := runAt(t, threeTierBuilder(), 500, 200*des.Millisecond, des.Second)
	// Mean latency is millisecond-scale (30% of requests hit disk).
	mean := rep.Latency.Mean()
	if mean < 500*des.Microsecond || mean > 20*des.Millisecond {
		t.Fatalf("3-tier mean %v, want ms-scale", mean)
	}
	if rep.PerTier["mongodb"] == nil {
		t.Fatal("mongodb tier missing")
	}
	// Disk path dominates mongo residence.
	if rep.PerTier["mongodb"].Mean() < 500*des.Microsecond {
		t.Fatalf("mongo residence %v, want ms-scale", rep.PerTier["mongodb"].Mean())
	}
	// Capacity is far below the 2-tier app's (disk IOPS bound).
	capacity3 := capacity(t, threeTierBuilder(), 20000)
	if capacity3 > 10000 {
		t.Fatalf("3-tier capacity %v, want disk-bound (≲10k)", capacity3)
	}
}

func TestThreeTierMissesSlower(t *testing.T) {
	// With hit prob 0.7, p99 should reflect the slow (disk) path while
	// p50 reflects cache hits.
	rep := runAt(t, threeTierBuilder(), 500, 200*des.Millisecond, 2*des.Second)
	p50, p99 := rep.Latency.P50(), rep.Latency.P99()
	if p99 < 4*p50 {
		t.Fatalf("p99 %v vs p50 %v: miss path should stretch the tail", p99, p50)
	}
}

func lbBuilder(n int) func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return LoadBalanced(ScaleOutConfig{Seed: 7, QPS: qps, Servers: n})
	}
}

func TestLoadBalancingScaling(t *testing.T) {
	cap4 := capacity(t, lbBuilder(4), 80000)
	cap8 := capacity(t, lbBuilder(8), 160000)
	cap16 := capacity(t, lbBuilder(16), 250000)
	// Fig. 8: 4→8 scales linearly (35k→70k), 8→16 sub-linearly (→~120k,
	// interrupt cores saturate).
	if cap8 < 1.8*cap4 || cap8 > 2.2*cap4 {
		t.Fatalf("scale-out 4→8: %v → %v, want ≈2×", cap4, cap8)
	}
	if cap16 > 1.9*cap8 {
		t.Fatalf("scale-out 8→16: %v → %v, want sub-linear", cap8, cap16)
	}
	if cap16 < 1.2*cap8 {
		t.Fatalf("scale-out 8→16: %v → %v, collapsed instead of sub-linear", cap8, cap16)
	}
	// Magnitudes in the paper's ballpark.
	if cap4 < 25000 || cap4 > 45000 {
		t.Fatalf("cap4 = %v, want ≈35k", cap4)
	}
	if cap16 < 95000 || cap16 > 145000 {
		t.Fatalf("cap16 = %v, want ≈120k", cap16)
	}
}

func fanoutBuilder(n int) func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return Fanout(ScaleOutConfig{Seed: 7, QPS: qps, Servers: n})
	}
}

func TestFanoutTailGrowsWithWidth(t *testing.T) {
	var prev des.Time
	for _, n := range []int{4, 8, 16} {
		rep := runAt(t, fanoutBuilder(n), 3000, 200*des.Millisecond, des.Second)
		p99 := rep.Latency.P99()
		if p99 <= prev {
			t.Fatalf("fanout %d p99 %v not greater than previous %v", n, p99, prev)
		}
		prev = p99
	}
}

func TestFanoutSaturationDecreasesSlightly(t *testing.T) {
	cap4 := capacity(t, fanoutBuilder(4), 20000)
	cap16 := capacity(t, fanoutBuilder(16), 20000)
	if cap16 > cap4 {
		t.Fatalf("fanout capacity should not grow with width: %v vs %v", cap4, cap16)
	}
	if cap16 < 0.5*cap4 {
		t.Fatalf("fanout capacity collapsed: %v vs %v", cap4, cap16)
	}
	// Every request touches every leaf, so leaf capacity (~8.8k) bounds.
	if cap4 < 5000 || cap4 > 11000 {
		t.Fatalf("fanout-4 capacity %v, want ≈8–9k", cap4)
	}
}

func thriftBuilder() func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return ThriftHello(ThriftHelloConfig{Seed: 7, QPS: qps, Network: true})
	}
}

func TestThriftHelloLowLoadUnder100us(t *testing.T) {
	rep := runAt(t, thriftBuilder(), 5000, 200*des.Millisecond, des.Second)
	if rep.Latency.P99() >= 100*des.Microsecond {
		t.Fatalf("Thrift low-load p99 %v, want <100µs (Fig. 12a)", rep.Latency.P99())
	}
}

func TestThriftHelloSaturatesNear50k(t *testing.T) {
	got := capacity(t, thriftBuilder(), 120000)
	if got < 40000 || got > 70000 {
		t.Fatalf("Thrift capacity %v, want ≈50k (Fig. 12a)", got)
	}
}

func snBuilderFn() func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return SocialNetwork(SocialNetworkConfig{Seed: 7, QPS: qps, Network: true})
	}
}

func TestSocialNetworkRuns(t *testing.T) {
	rep := runAt(t, snBuilderFn(), 1000, 200*des.Millisecond, des.Second)
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	// Every tier appears.
	for _, tier := range []string{"frontend", "user", "post", "usermc", "postmc"} {
		if rep.PerTier[tier] == nil {
			t.Fatalf("tier %s missing", tier)
		}
	}
	// Media is optional (≈50% of requests).
	mediaShare := float64(rep.PerTier["media"].Count()) / float64(rep.Completions)
	if mediaShare < 0.4 || mediaShare > 0.6 {
		t.Fatalf("media share %v, want ≈0.5", mediaShare)
	}
	// Mongo tiers only on cache misses (≈15%).
	mongoShare := float64(rep.PerTier["usermongo"].Count()) / float64(rep.Completions)
	if mongoShare < 0.08 || mongoShare > 0.22 {
		t.Fatalf("usermongo share %v, want ≈0.15", mongoShare)
	}
	// Low-load latency sub-5ms at p50 (cache-hit path).
	if rep.Latency.P50() > 5*des.Millisecond {
		t.Fatalf("social network p50 %v", rep.Latency.P50())
	}
}

func TestSocialNetworkSaturates(t *testing.T) {
	got := capacity(t, snBuilderFn(), 15000)
	if got < 2000 || got > 12000 {
		t.Fatalf("social network capacity %v, want few-kQPS (disk/frontend bound)", got)
	}
}

func tasBuilder(n int, slow float64) func(qps float64) (*sim.Sim, error) {
	return func(qps float64) (*sim.Sim, error) {
		return TailAtScale(TailAtScaleConfig{
			Seed: 7, QPS: qps, Servers: n, SlowFraction: slow,
		})
	}
}

func TestTailAtScaleMatchesAnalyticAtLightLoad(t *testing.T) {
	// No slow servers, light load: p99 of the fan-out should track the
	// closed-form p99 of max of n exponentials (plus small queueing).
	for _, n := range []int{5, 20} {
		rep := runAt(t, tasBuilder(n, 0), 20, 0, 20*des.Second)
		got := rep.Latency.P99().Seconds() * 1000                // ms
		want := analytic.MaxOfExponentialsQuantile(n, 1.0, 0.99) // ms (mean 1ms)
		if got < want*0.9 || got > want*1.6 {
			t.Fatalf("n=%d: p99 %vms vs analytic %vms", n, got, want)
		}
	}
}

func TestTailAtScaleSlowServersDominate(t *testing.T) {
	// Fig. 14: with 1% slow servers, large clusters' p99 is set by the
	// slow machines (≥ slow mean 10ms), while small clusters often miss
	// them.
	repSmall := runAt(t, tasBuilder(5, 0.01), 20, 0, 10*des.Second) // 0 slow (rounds to 0)
	repBig := runAt(t, tasBuilder(200, 0.01), 20, 0, 5*des.Second)
	if repBig.Latency.P99() < 10*des.Millisecond {
		t.Fatalf("200-server 1%%-slow p99 %v, want ≥10ms", repBig.Latency.P99())
	}
	if repSmall.Latency.P99() > repBig.Latency.P99() {
		t.Fatalf("small cluster p99 %v should undercut big cluster %v",
			repSmall.Latency.P99(), repBig.Latency.P99())
	}
}

func TestTailAtScaleMoreSlowIsWorse(t *testing.T) {
	p99 := func(slow float64) des.Time {
		rep := runAt(t, tasBuilder(100, slow), 20, 0, 5*des.Second)
		return rep.Latency.P99()
	}
	none, one, ten := p99(0), p99(0.01), p99(0.10)
	if !(none < one && one <= ten) {
		t.Fatalf("p99 progression %v, %v, %v not monotone in slow fraction", none, one, ten)
	}
}

func TestCachedTwoTierEmergentHitRatio(t *testing.T) {
	run := func(items int) (float64, *sim.Report) {
		t.Helper()
		s, lru, err := CachedTwoTier(CachedTwoTierConfig{
			Seed: 7, QPS: 1000, Keys: 50000, CacheItems: items, Network: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(200*des.Millisecond, 2*des.Second)
		if err != nil {
			t.Fatal(err)
		}
		return lru.HitRatio(), rep
	}
	smallRatio, smallRep := run(500)
	bigRatio, bigRep := run(20000)
	if !(smallRatio < bigRatio) {
		t.Fatalf("hit ratio should grow with cache size: %v vs %v", smallRatio, bigRatio)
	}
	if bigRatio < 0.4 {
		t.Fatalf("big cache hit ratio %v implausibly low", bigRatio)
	}
	// A better hit ratio must show up as lower mean latency (fewer disk
	// trips).
	if bigRep.Latency.Mean() >= smallRep.Latency.Mean() {
		t.Fatalf("bigger cache should lower latency: %v vs %v",
			bigRep.Latency.Mean(), smallRep.Latency.Mean())
	}
	// Mongo traffic share equals the miss ratio.
	missShare := float64(bigRep.PerTier["mongodb"].Count()) / float64(bigRep.Completions)
	if math.Abs(missShare-(1-bigRatio)) > 0.05 {
		t.Fatalf("mongo share %v vs miss ratio %v", missShare, 1-bigRatio)
	}
}

func TestSocialNetworkWithWrites(t *testing.T) {
	s, err := SocialNetwork(SocialNetworkConfig{
		Seed: 7, QPS: 1000, Network: true, WithWrites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(200*des.Millisecond, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	total := float64(rep.Completions)
	// Timeline appears on timeline reads (0.2) and compose updates
	// (0.15 via timelinemc): check both tiers exist with sane shares.
	tlSvc := float64(rep.PerTier["timeline"].Count()) / total
	if tlSvc < 0.14 || tlSvc > 0.26 {
		t.Fatalf("timeline service share %v, want ≈0.2", tlSvc)
	}
	tlMc := float64(rep.PerTier["timelinemc"].Count()) / total
	if tlMc < 0.25 || tlMc > 0.45 {
		t.Fatalf("timelinemc share %v, want ≈0.35 (reads + compose updates)", tlMc)
	}
	// Compose writes hit postmongo unconditionally (0.15) on top of
	// read-miss traffic.
	pmShare := float64(rep.PerTier["postmongo"].Count()) / total
	if pmShare < 0.15 || pmShare > 0.35 {
		t.Fatalf("postmongo share %v, want ≳0.15 (compose) + misses", pmShare)
	}
	// Follow writes hit usermongo on top of read misses.
	umShare := float64(rep.PerTier["usermongo"].Count()) / total
	if umShare < 0.05 || umShare > 0.25 {
		t.Fatalf("usermongo share %v", umShare)
	}
	// Default read-only build must not deploy the timeline tier.
	s2, err := SocialNetwork(SocialNetworkConfig{Seed: 7, QPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Deployment("timeline"); ok {
		t.Fatal("read-only social network should not deploy timeline")
	}
}
