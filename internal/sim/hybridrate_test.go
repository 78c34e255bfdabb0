package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/hybrid"
	"uqsim/internal/workload"
)

// closedPopulationRateRef is the reference closedPopulationRate: always
// 64 damped steps, no early stop. settled reports whether
// some step left λ unchanged, i.e. whether the early stop can fire.
func closedPopulationRateRef(n, thinkS float64, svcs []hybrid.Service) (lam float64, settled bool) {
	if n <= 0 {
		return 0, false
	}
	es := make([]float64, len(svcs))
	for i := range svcs {
		es[i] = svcs[i].MeanServiceS
		if svcs[i].Speed != nil {
			sp := svcs[i].Speed()
			if !(sp > 0) {
				return 0, false
			}
			es[i] = svcs[i].MeanServiceS / sp
		}
	}
	capacity := math.Inf(1)
	base := thinkS
	for i := range svcs {
		sv := &svcs[i]
		if sv.Visits <= 0 {
			continue
		}
		base += sv.Visits * es[i]
		k := sv.Servers()
		if k <= 0 {
			return 0, false
		}
		if c := float64(k) / es[i] / sv.Visits; c < capacity {
			capacity = c
		}
	}
	if base <= 0 {
		return 0, false
	}
	lam = n / base
	if !math.IsInf(capacity, 1) && lam > 0.999*capacity {
		lam = 0.999 * capacity
	}
	for i := 0; i < 64; i++ {
		prev := lam
		r := thinkS
		saturated := false
		for j := range svcs {
			sv := &svcs[j]
			r += sv.Visits * es[j]
			if sv.Visits <= 0 {
				continue
			}
			w := analytic.MMkMeanWait(lam*sv.Visits, 1/es[j], sv.Servers())
			if analytic.IsSaturated(w) {
				saturated = true
				break
			}
			r += sv.Visits * w
		}
		if saturated {
			if math.IsInf(capacity, 1) {
				return 0, false
			}
			lam = 0.999 * capacity
		} else {
			next := n / r
			if !math.IsInf(capacity, 1) && next > 0.999*capacity {
				next = 0.999 * capacity
			}
			lam = 0.5*lam + 0.5*next
		}
		settled = settled || lam == prev
	}
	if math.IsNaN(lam) || math.IsInf(lam, 0) || lam < 0 {
		return 0, settled
	}
	return lam, settled
}

// TestClosedPopulationRateMatchesFullIteration: stopping at the first
// step that leaves λ unchanged returns the 64-step result bit-for-bit
// over generated chains at light load, near capacity and saturated,
// with DVFS-degraded, frozen, zero-server and unvisited services. Both
// settling and never-settling inputs must occur.
func TestClosedPopulationRateMatchesFullIteration(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	var settled, unsettled int
	for i := 0; i < 1500; i++ {
		nsvc := 1 + r.IntN(4)
		svcs := make([]hybrid.Service, nsvc)
		capacity := math.Inf(1)
		for j := range svcs {
			k := 1 + r.IntN(64)
			if i%25 == 0 {
				k = 1 + r.IntN(3000)
			}
			if r.IntN(60) == 0 {
				k = 0 // total outage
			}
			sv := hybrid.Service{
				Name:         "s",
				Visits:       []float64{0, 0.5, 1, 1, 2}[r.IntN(5)],
				MeanServiceS: 0.0005 + 0.01*r.Float64(),
				Servers:      func() int { return k },
			}
			speed := 1.0
			switch r.IntN(6) {
			case 0:
				speed = 0.5 + 0.5*r.Float64() // DVFS degrade
			case 1:
				speed = 1 // explicit nominal
			}
			if r.IntN(100) == 0 {
				speed = 0 // frozen
			}
			if speed != 1 || r.IntN(2) == 0 {
				sv.Speed = func() float64 { return speed }
			}
			if sv.Visits > 0 && k > 0 && speed > 0 {
				capacity = math.Min(capacity, float64(k)*speed/sv.MeanServiceS/sv.Visits)
			}
			svcs[j] = sv
		}
		think := r.Float64() * 2
		n := 1000 * r.Float64()
		if !math.IsInf(capacity, 1) {
			// Light load, near capacity and far past it.
			n = capacity * think * math.Pow(10, -2+3*r.Float64())
		}
		want, ok := closedPopulationRateRef(n, think, svcs)
		if got := closedPopulationRate(n, think, svcs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: closedPopulationRate(%v, %v) = %v, 64-step reference %v", i, n, think, got, want)
		}
		if ok {
			settled++
		} else {
			unsettled++
		}
	}
	if settled == 0 || unsettled == 0 {
		t.Fatalf("inputs cover settled=%d unsettled=%d; need both loop exits", settled, unsettled)
	}
}

// TestClosedRateMemoKeysExactState is the stale-rate regression: the
// session rate memo once keyed on a polynomial hash (sig·1000003 + value)
// of each service's live cores and speed bits, so a service at 1 core and
// speed bits b hashed like one at 2 cores and bits b−1000003, and the
// second state replayed the first's rate. Keyed on the exact values,
// each state gets its own fixed point.
func TestClosedRateMemoKeysExactState(t *testing.T) {
	const p = 1000003
	oldSig := func(k int, speed float64) uint64 {
		return uint64(k)*p + math.Float64bits(speed)
	}
	k, speed := 1, 1.0
	collide := math.Float64frombits(math.Float64bits(speed) - p)
	if oldSig(1, speed) != oldSig(2, collide) {
		t.Fatal("states no longer collide under the old hash")
	}
	svcs := []hybrid.Service{{
		Name: "web", Visits: 1, MeanServiceS: 0.010,
		Servers: func() int { return k },
		Speed:   func() float64 { return speed },
	}}
	sc := &workload.SessionConfig{Users: 150, Journeys: []workload.Journey{{
		Name: "j", Weight: 1, Steps: []workload.SessionStep{{Tree: 0, Think: dist.NewExponential(float64(des.Second))}},
	}}}
	rate := closedRateMemo(sc, svcs)
	first := rate(0)
	if want := closedPopulationRate(150, 1, svcs); first != want {
		t.Fatalf("first state rate %v, want %v", first, want)
	}
	k, speed = 2, collide
	second := rate(0)
	if want := closedPopulationRate(150, 1, svcs); second != want || second == first {
		t.Fatalf("colliding state rate %v (first %v), want its own fixed point %v", second, first, want)
	}
}
