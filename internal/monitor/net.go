package monitor

import (
	"uqsim/internal/des"
	"uqsim/internal/netfault"
	"uqsim/internal/stats"
)

// WatchNet registers cumulative network-fault series (<name>.unreachable,
// <name>.linkdrops, <name>.linkdups) sampled on the monitor cadence: attempts
// failed fast on an open partition, gray-link message drops, and gray-link
// duplicates. A nil st (a perfect fabric) records zeros. Must be called
// before Start.
func (m *Monitor) WatchNet(name string, st *netfault.State) (unreachable, drops, dups *stats.TimeSeries) {
	unreachable = m.WatchGauge(name+".unreachable", func(des.Time) float64 { return float64(st.Unreachable()) })
	drops = m.WatchGauge(name+".linkdrops", func(des.Time) float64 { return float64(st.LinkDrops()) })
	dups = m.WatchGauge(name+".linkdups", func(des.Time) float64 { return float64(st.LinkDups()) })
	return unreachable, drops, dups
}
