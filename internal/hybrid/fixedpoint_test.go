package hybrid

import (
	"math"
	"math/rand/v2"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// amplificationRef is the reference amplification: always 32 damped
// steps, no early stop. settled reports whether some step left
// amp unchanged, i.e. whether the early stop can fire at all.
func amplificationRef(lambda, mu float64, k int, pol *Policy) (amp float64, settled bool) {
	if pol == nil || pol.MaxRetries <= 0 || lambda <= 0 || k <= 0 || mu <= 0 {
		return 1, false
	}
	amp = 1.0
	for iter := 0; iter < 32; iter++ {
		pTO := analytic.MMkTimeoutProb(lambda*amp, mu, k, pol.TimeoutS)
		next := analytic.RetryAttempts(pTO, pol.MaxRetries)
		if pol.BreakerThreshold > 0 && pTO >= pol.BreakerThreshold {
			next = 1
		}
		prev := amp
		amp = 0.5*amp + 0.5*next
		settled = settled || amp == prev
	}
	return amp, settled
}

// TestAmplificationMatchesFullIteration: stopping at the first step that
// leaves amp unchanged returns the 32-step result bit-for-bit — quiet
// edges whose timeout tail underflows, retry storms near and past
// capacity, breaker-tripped edges, DVFS-degraded µ and zero servers.
// Both settling and never-settling inputs must occur.
func TestAmplificationMatchesFullIteration(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var settled, unsettled int
	check := func(lambda, mu float64, k int, pol *Policy) {
		t.Helper()
		want, ok := amplificationRef(lambda, mu, k, pol)
		if got := amplification(lambda, mu, k, pol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("amplification(%v, %v, %d, %+v) = %v, 32-step reference %v", lambda, mu, k, *pol, got, want)
		}
		if ok {
			settled++
		} else {
			unsettled++
		}
	}
	pol := &Policy{TimeoutS: 0.025, MaxRetries: 2}
	check(0, 100, 4, pol)                                       // no load
	check(300, 100, 0, pol)                                     // zero servers
	check(1_300_000, 0.85/0.002, 5000, pol)                     // 5,000-core leaf at 85% clock
	check(500, 100, 4, &Policy{TimeoutS: 0.001, MaxRetries: 3}) // storm past capacity
	check(500, 100, 4, &Policy{TimeoutS: 0.001, MaxRetries: 3, BreakerThreshold: 0.5})
	for i := 0; i < 3000; i++ {
		k := 1 + r.IntN(64)
		if i%20 == 0 {
			k = 1 + r.IntN(5000)
		}
		mu := 50 + 950*r.Float64()
		if r.IntN(4) == 0 {
			mu *= 0.5 + 0.5*r.Float64() // DVFS degrade
		}
		lambda := float64(k) * mu * (0.05 + 1.2*r.Float64())
		p := &Policy{
			TimeoutS:   math.Pow(10, -4+3*r.Float64()) / mu * 10,
			MaxRetries: 1 + r.IntN(4),
		}
		if r.IntN(3) == 0 {
			p.BreakerThreshold = 0.05 + 0.9*r.Float64()
		}
		check(lambda, mu, k, p)
	}
	if settled == 0 || unsettled == 0 {
		t.Fatalf("inputs cover settled=%d unsettled=%d; need both loop exits", settled, unsettled)
	}
}

// TestEvalCondRateMatchesWaitDist: eval takes the conditional wait rate
// from the equilibrium point instead of a second Erlang-C pass; it must
// equal MMkWaitDist's at the amplified rate, stable or saturated.
func TestEvalCondRateMatchesWaitDist(t *testing.T) {
	pol := &Policy{TimeoutS: 0.002, MaxRetries: 2}
	for _, offered := range []float64{50, 300, 390, 1000} {
		svcs := []Service{
			{Name: "front", Visits: 1, MeanServiceS: 0.001, Servers: func() int { return 2 }},
			{Name: "leaf", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 4 }, Policy: pol},
		}
		st, err := New(Config{SampleRate: 0.1}, svcs,
			func(des.Time) float64 { return offered }, rng.NewSplitter(5).Child("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		st.Start(des.New(), 0, 0)
		for i, sv := range svcs {
			mu := 1 / sv.MeanServiceS
			lamEff := offered * amplification(offered, mu, sv.Servers(), sv.Policy)
			pw, cond := analytic.MMkWaitDist(lamEff, mu, sv.Servers())
			p := st.points[i]
			if math.Float64bits(p.condRate) != math.Float64bits(cond) || math.Float64bits(p.PWait) != math.Float64bits(pw) {
				t.Fatalf("offered %v %s: point (pwait %v, cond %v), MMkWaitDist (%v, %v)",
					offered, sv.Name, p.PWait, p.condRate, pw, cond)
			}
		}
	}
}
