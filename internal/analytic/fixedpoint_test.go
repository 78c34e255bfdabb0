package analytic

import (
	"math"
	"testing"
)

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
