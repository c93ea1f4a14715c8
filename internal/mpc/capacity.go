package mpc

import "fmt"

// SetCapacities attaches a per-server capacity profile to the cluster:
// caps[i] is server i's relative processing rate (any positive scale;
// only ratios matter). NormalizedMakespan judges a round by max
// recv_i/caps_i instead of max recv_i. A nil caps detaches the profile,
// and so does one whose capacities are all equal: a uniform profile is
// no profile. A profile is not observationally free: on a cluster that
// carries one, the hypercube descriptor gives each server a box of its
// grid sized to the server's capacity (hypercube.RunHet), which changes
// what every server receives. It panics on a profile CheckCapacities
// rejects.
func (c *Cluster) SetCapacities(caps []float64) {
	if err := CheckCapacities(c.p, caps); err != nil {
		panic(err)
	}
	c.caps = nil
	for _, v := range caps {
		if v != caps[0] {
			c.caps = append([]float64(nil), caps...)
			break
		}
	}
}

// CheckCapacities reports whether caps is a valid capacity profile for
// p servers: nil, or one positive capacity per server.
func CheckCapacities(p int, caps []float64) error {
	if caps != nil && len(caps) != p {
		return fmt.Errorf("mpc: %d capacities for %d servers", len(caps), p)
	}
	for i, v := range caps {
		if v <= 0 {
			return fmt.Errorf("mpc: capacity of server %d is %v, want > 0", i, v)
		}
	}
	return nil
}

// Capacities returns the attached capacity profile, or nil when the
// cluster is uniform (none attached, or all capacities equal). The
// slice is a copy; mutating it does not affect the cluster.
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
