// Package monitor samples live simulation state on a fixed virtual-time
// cadence: per-instance queue lengths, in-flight counts, and core
// utilization. It is the observability companion to the trace package —
// traces explain individual slow requests, the monitor shows where queues
// build up over time (the back-pressure and cascading-hotspot effects the
// paper's power-management study worries about).
package monitor

import (
	"fmt"
	"strings"

	"uqsim/internal/des"
	"uqsim/internal/service"
	"uqsim/internal/stats"
)

// Series holds the sampled time series of one instance.
type Series struct {
	Name     string
	QueueLen *stats.TimeSeries
	InFlight *stats.TimeSeries
	// Util is the cumulative mean utilization at each sample time.
	Util *stats.TimeSeries
	// Shed and Dropped track cumulative rejected work: queue-bound sheds
	// and kill/crash drops.
	Shed    *stats.TimeSeries
	Dropped *stats.TimeSeries
	// Up is 1 while the instance is serving and 0 while faulted.
	Up *stats.TimeSeries
	// Canceled and Wasted track cumulative discarded work (cancelled
	// before service vs served uselessly).
	Canceled *stats.TimeSeries
	Wasted   *stats.TimeSeries

	in *service.Instance
}

// Monitor drives periodic sampling on a DES engine.
type Monitor struct {
	eng      des.Scheduler
	interval des.Time
	series   []*Series
	gaugeFns []func(now des.Time) float64
	gauges   []*stats.TimeSeries
	started  bool
	samples  int
}

// New creates a monitor sampling every interval of virtual time.
func New(eng des.Scheduler, interval des.Time) *Monitor {
	if interval <= 0 {
		panic("monitor: interval must be positive")
	}
	return &Monitor{eng: eng, interval: interval}
}

// Watch registers an instance under a display name. Must be called
// before Start.
func (m *Monitor) Watch(name string, in *service.Instance) *Series {
	if m.started {
		panic("monitor: Watch after Start")
	}
	s := &Series{
		Name:     name,
		QueueLen: stats.NewTimeSeries(name + ".qlen"),
		InFlight: stats.NewTimeSeries(name + ".inflight"),
		Util:     stats.NewTimeSeries(name + ".util"),
		Shed:     stats.NewTimeSeries(name + ".shed"),
		Dropped:  stats.NewTimeSeries(name + ".dropped"),
		Up:       stats.NewTimeSeries(name + ".up"),
		Canceled: stats.NewTimeSeries(name + ".canceled"),
		Wasted:   stats.NewTimeSeries(name + ".wasted"),
		in:       in,
	}
	m.series = append(m.series, s)
	return s
}

// WatchGauge registers a free-form gauge sampled on the monitor cadence —
// the hook control planes use to surface healthy/ejected/replica counts
// without the monitor depending on them. Must be called before Start.
func (m *Monitor) WatchGauge(name string, fn func(now des.Time) float64) *stats.TimeSeries {
	if m.started {
		panic("monitor: WatchGauge after Start")
	}
	if fn == nil {
		panic("monitor: WatchGauge needs a sampling function")
	}
	ts := stats.NewTimeSeries(name)
	m.gaugeFns = append(m.gaugeFns, fn)
	m.gauges = append(m.gauges, ts)
	return ts
}

// Gauges returns the registered gauge series in WatchGauge order.
func (m *Monitor) Gauges() []*stats.TimeSeries { return m.gauges }

// Start schedules the first sample one interval from now.
func (m *Monitor) Start() {
	m.started = true
	m.eng.After(m.interval, m.sample)
}

func (m *Monitor) sample(now des.Time) {
	m.samples++
	for _, s := range m.series {
		in := s.in
		s.QueueLen.Record(now, float64(in.QueueLen()))
		s.InFlight.Record(now, float64(in.InFlight()))
		s.Util.Record(now, in.Utilization(now))
		s.Shed.Record(now, float64(in.Shed()))
		s.Dropped.Record(now, float64(in.Dropped()))
		up := 1.0
		if in.Down() {
			up = 0
		}
		s.Up.Record(now, up)
		s.Canceled.Record(now, float64(in.CanceledEarly()))
		s.Wasted.Record(now, float64(in.WastedWork()))
	}
	for i, fn := range m.gaugeFns {
		m.gauges[i].Record(now, fn(now))
	}
	m.eng.After(m.interval, m.sample)
}

// Samples reports how many sampling rounds have run.
func (m *Monitor) Samples() int { return m.samples }

// Series returns the registered series in Watch order.
func (m *Monitor) AllSeries() []*Series { return m.series }

// PeakQueueLen reports the maximum sampled queue length per watched instance.
func (m *Monitor) PeakQueueLen() map[string]float64 {
	out := make(map[string]float64, len(m.series))
	for _, s := range m.series {
		peak := 0.0
		for _, p := range s.QueueLen.Points() {
			if p.V > peak {
				peak = p.V
			}
		}
		out[s.Name] = peak
	}
	return out
}

// CSV renders all series as one CSV document (t_s, then one column per
// instance per metric).
func (m *Monitor) CSV() string {
	var b strings.Builder
	b.WriteString("t_s")
	for _, s := range m.series {
		n := s.Name
		fmt.Fprintf(&b, ",%s_qlen,%s_inflight,%s_util,%s_shed,%s_dropped,%s_up,%s_canceled,%s_wasted",
			n, n, n, n, n, n, n, n)
	}
	for _, g := range m.gauges {
		fmt.Fprintf(&b, ",%s", g.Name)
	}
	b.WriteByte('\n')
	if len(m.series) == 0 {
		return b.String()
	}
	n := m.series[0].QueueLen.Len()
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%.3f", m.series[0].QueueLen.Points()[i].T.Seconds())
		for _, s := range m.series {
			if i < s.QueueLen.Len() {
				fmt.Fprintf(&b, ",%.0f,%.0f,%.3f,%.0f,%.0f,%.0f,%.0f,%.0f",
					s.QueueLen.Points()[i].V,
					s.InFlight.Points()[i].V,
					s.Util.Points()[i].V,
					s.Shed.Points()[i].V,
					s.Dropped.Points()[i].V,
					s.Up.Points()[i].V,
					s.Canceled.Points()[i].V,
					s.Wasted.Points()[i].V)
			} else {
				b.WriteString(",,,,,,,,")
			}
		}
		for _, g := range m.gauges {
			if i < g.Len() {
				fmt.Fprintf(&b, ",%g", g.Points()[i].V)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
