package stats

import (
	"math"
	"sort"

	"uqsim/internal/des"
)

// Percentile computes the exact q-quantile (nearest-rank) of the samples.
// It sorts a copy; intended for test assertions and small result sets, not
// hot paths (use LatencyHist there).
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Welford tracks streaming mean and variance without storing samples.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count reports the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the population variance (0 with <2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev reports the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// Point is one (virtual time, value) observation in a TimeSeries.
type Point struct {
	T des.Time
	V float64
}

// TimeSeries records (time, value) pairs, e.g. the power manager's
// frequency trace or instantaneous tail latency (Fig. 16).
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Record appends a point. Timestamps should be nondecreasing.
func (ts *TimeSeries) Record(t des.Time, v float64) {
	ts.points = append(ts.points, Point{T: t, V: v})
}

// Points returns the recorded points (shared slice; treat as read-only).
func (ts *TimeSeries) Points() []Point { return ts.points }

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Mean reports the unweighted mean of the recorded values.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ts.points {
		sum += p.V
	}
	return sum / float64(len(ts.points))
}

// FractionAbove reports the fraction of points with value > threshold —
// used for QoS-violation rates (Table III).
func (ts *TimeSeries) FractionAbove(threshold float64) float64 {
	if len(ts.points) == 0 {
		return 0
	}
	n := 0
	for _, p := range ts.points {
		if p.V > threshold {
			n++
		}
	}
	return float64(n) / float64(len(ts.points))
}
