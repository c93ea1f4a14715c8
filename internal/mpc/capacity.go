package mpc

import "fmt"

// SetCapacities attaches a per-server capacity profile to the cluster:
// caps[i] is server i's relative processing rate (any positive scale;
// only ratios matter). Heterogeneity-aware planners apportion grid
// cells proportionally to capacity, and NormalizedMakespan judges a
// round by max recv_i/caps_i instead of max recv_i. A nil caps detaches
// the profile, and so does one whose capacities are all equal: a
// uniform profile is no profile. A profile is not observationally
// free: on a cluster that carries one, the hypercube descriptor routes
// by capacity-proportional cells (hypercube.RunHet), which changes
// what every server receives.
func (c *Cluster) SetCapacities(caps []float64) {
	if caps == nil {
		c.caps = nil
		return
	}
	if len(caps) != c.p {
		panic(fmt.Sprintf("mpc: SetCapacities: %d capacities for %d servers", len(caps), c.p))
	}
	uniform := true
	for i, v := range caps {
		if v <= 0 {
			panic(fmt.Sprintf("mpc: SetCapacities: capacity[%d] = %v must be > 0", i, v))
		}
		uniform = uniform && v == caps[0]
	}
	if uniform {
		c.caps = nil
		return
	}
	c.caps = append([]float64(nil), caps...)
}

// Capacities returns the attached capacity profile, or nil when the
// cluster is uniform (none attached, or all capacities equal). The slice is a copy; mutating it does not affect
// the cluster.
func (c *Cluster) Capacities() []float64 {
	if c.caps == nil {
		return nil
	}
	return append([]float64(nil), c.caps...)
}

// NormalizedMakespan returns the capacity-normalized makespan of the
// run so far: max over servers of (total tuples received)/(capacity).
// With nil or uniform capacities this degrades to MaxLoad (up to the
// uniform scale factor). It is the objective heterogeneity-aware
// shares minimize (arXiv 2501.08896): a slow server receiving the
// same load as a fast one dominates wall-clock time.
func (m *Metrics) NormalizedMakespan(caps []float64) float64 {
	totals := make([]int64, m.p)
	for _, st := range m.stats {
		for i, r := range st.Recv {
			totals[i] += r
		}
	}
	var worst float64
	for i, tot := range totals {
		c := 1.0
		if caps != nil {
			c = caps[i]
		}
		if v := float64(tot) / c; v > worst {
			worst = v
		}
	}
	return worst
}
