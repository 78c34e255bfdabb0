package analytic

import (
	"math"
	"math/rand/v2"
	"testing"
)

// closedMMkRateRef is the reference ClosedMMkRate: always 64 damped
// steps, no early stop. settled reports whether some step left
// λ unchanged, i.e. whether the early stop can fire at all.
func closedMMkRateRef(n, thinkS, es float64, k int) (lam float64, settled bool) {
	if n <= 0 || es <= 0 || k <= 0 || thinkS < 0 {
		return 0, false
	}
	mu := 1 / es
	capacity := float64(k) * mu
	lam = math.Min(n/(thinkS+es), 0.999*capacity)
	for i := 0; i < 64; i++ {
		prev := lam
		w := MMkMeanWait(lam, mu, k)
		if IsSaturated(w) {
			lam = 0.999 * capacity
		} else {
			next := n / (thinkS + es + w)
			if next >= capacity {
				next = 0.999 * capacity
			}
			lam = 0.5*lam + 0.5*next
		}
		settled = settled || lam == prev
	}
	return lam, settled
}

// TestClosedMMkRateMatchesFullIteration: stopping at the first step that
// leaves λ unchanged returns the 64-step result bit-for-bit, over light,
// near-capacity and saturated populations. Both settling and
// never-settling inputs must occur, so both loop exits are covered.
func TestClosedMMkRateMatchesFullIteration(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var settled, unsettled int
	check := func(n, think, es float64, k int) {
		t.Helper()
		want, ok := closedMMkRateRef(n, think, es, k)
		if got := ClosedMMkRate(n, think, es, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ClosedMMkRate(%v, %v, %v, %d) = %v, 64-step reference %v", n, think, es, k, got, want)
		}
		if ok {
			settled++
		} else {
			unsettled++
		}
	}
	// Degenerate inputs.
	check(0, 1, 0.01, 4)
	check(10, 1, 0.01, 0)
	for i := 0; i < 2000; i++ {
		k := 1 + r.IntN(64)
		if i%10 == 0 {
			k = 1 + r.IntN(4000)
		}
		es := 0.0005 + 0.02*r.Float64()
		think := r.Float64() * 2
		// Population as a multiple of the one that just fills capacity:
		// light load, near capacity and far past it.
		fill := float64(k) / es * (think + es)
		n := fill * math.Pow(10, -2+3*r.Float64())
		check(n, think, es, k)
	}
	if settled == 0 || unsettled == 0 {
		t.Fatalf("inputs cover settled=%d unsettled=%d; need both loop exits", settled, unsettled)
	}
}

// TestMMkAtMatchesHelpers: MMkAt evaluates Erlang-C once and derives the
// mean wait from it; every field must equal what the separate helpers
// return, bit-for-bit, across stable, saturated and degenerate inputs.
func TestMMkAtMatchesHelpers(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	mus := []float64{0, -1, 1e-3, 0.5, 100, 1234.5}
	ks := []int{-1, 0, 1, 2, 7, 64, 5000}
	for _, mu := range mus {
		for _, k := range ks {
			capacity := float64(k) * mu
			lambdas := []float64{-1, 0, 1e-9, 3}
			for _, f := range []float64{0.1, 0.5, 0.9, 0.999, 1, 1.5} {
				lambdas = append(lambdas, f*capacity)
			}
			for _, lambda := range lambdas {
				p := MMkAt(lambda, mu, k)
				w := MMkMeanWait(lambda, mu, k)
				pw, cond := MMkWaitDist(lambda, mu, k)
				if p.Saturated != MMkSaturated(lambda, mu, k) || p.Saturated != (cond == 0) {
					t.Fatalf("(%v, %v, %d): saturated %v, helpers say %v / condRate %v",
						lambda, mu, k, p.Saturated, MMkSaturated(lambda, mu, k), cond)
				}
				if !same(p.MeanWaitS, w) || !same(p.PWait, pw) {
					t.Fatalf("(%v, %v, %d): MMkAt wait %v pwait %v, helpers %v %v",
						lambda, mu, k, p.MeanWaitS, p.PWait, w, pw)
				}
				if !p.Saturated && !same(p.PWait, ErlangC(k, lambda/mu)) {
					t.Fatalf("(%v, %v, %d): PWait %v, ErlangC %v", lambda, mu, k, p.PWait, ErlangC(k, lambda/mu))
				}
				if !same(p.QueueLen, MMkMeanQueueLength(lambda, mu, k)) {
					t.Fatalf("(%v, %v, %d): QueueLen %v, helper %v",
						lambda, mu, k, p.QueueLen, MMkMeanQueueLength(lambda, mu, k))
				}
			}
		}
	}
}
