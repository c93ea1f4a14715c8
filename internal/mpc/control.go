package mpc

// Exchange meters one control exchange named name, the one way a
// driver reads across servers mid-query (the model's servers learn
// about each other only by communicating): every server contributes k
// words, which words adds into w, and Exchange returns their k sums,
// which every server then knows. A value every server knows at a
// round's barrier (a fragment size, a vote to halt) rides that barrier;
// a count over data the last round placed needs a control step of its
// own, and step says so. The ledger meters control words apart from
// tuples and control steps apart from rounds (Metrics.ControlWords,
// ControlSteps), so (L, r, C) keep their meaning. words runs on the
// driver, one server at a time, and must only read s. The sums live in
// the ledger and must not be changed. On a cluster whose Err is set
// Exchange records nothing and returns zeros. Call it between rounds,
// as Note.
func (c *Cluster) Exchange(name string, k int, step bool, words func(s *Server, w []int64)) []int64 {
	if c.err != nil {
		return make([]int64, k)
	}
	at, w := c.metrics.words(k)
	for _, s := range c.servers {
		words(s, w)
	}
	c.note(note{kind: exchangeNote, format: name, at: at, k: k, step: step})
	return w
}

// words appends k zeros to the ledger's control words and returns their
// offset and a view of them. It appends word by word (k is small), so
// it allocates only when the ledger's words grow, under the race
// detector too.
func (m *Metrics) words(k int) (int, []int64) {
	at := len(m.ctl)
	for range k {
		m.ctl = append(m.ctl, 0)
	}
	return at, m.ctl[at : at+k : at+k]
}

// Loads returns what a Shuffle of sends would deliver to each server,
// its RoundStat.Recv. Each server counts what it would send each
// destination, in the counting pass every send makes before it
// presizes, and an exchange named name sums the counts: p words per
// server, in a control step of its own.
func (c *Cluster) Loads(name string, sends ...Send) []int64 {
	return c.Exchange(name, c.p, true, func(s *Server, w []int64) { c.count(s, sends, w) })
}

// Choose counts what a Shuffle of each candidate would deliver to each
// server, in one control step of len(candidates)·p words per server,
// and returns the index of the candidate with the lowest L (max
// receive), then the lowest C (total receive); a tie goes to the first.
// It records the decision in the ledger, drawn as one choose event per
// candidate. On a cluster whose Err is set it records nothing and
// returns 0.
func (c *Cluster) Choose(name string, candidates ...[]Send) int {
	p, n := c.p, len(candidates)
	sums := c.Exchange(name, n*p, true, func(s *Server, w []int64) {
		for i, sends := range candidates {
			c.count(s, sends, w[i*p:(i+1)*p])
		}
	})
	if c.err != nil {
		return 0
	}
	at, costs := c.metrics.words(2 * n)
	pick := 0
	for i := 0; i < n; i++ {
		var l, sum int64
		for _, v := range sums[i*p : (i+1)*p] {
			l, sum = max(l, v), sum+v
		}
		costs[2*i], costs[2*i+1] = l, sum
		if l < costs[2*pick] || l == costs[2*pick] && sum < costs[2*pick+1] {
			pick = i
		}
	}
	c.note(note{kind: decisionNote, format: name, at: at, k: 2 * n, pick: pick})
	return pick
}

// count adds to loads[d] the tuples a Shuffle of sends would send
// server d from s.
func (c *Cluster) count(s *Server, sends []Send, loads []int64) {
	for _, sd := range sends {
		if frag := s.rels[sd.From]; frag != nil {
			sd.Policy.count(c.roundOuts()[s.id], frag, loads)
		}
	}
}

// ControlSteps returns r_ctl: the exchanges that needed a control step
// of their own. Rounds does not count them.
func (m *Metrics) ControlSteps() int {
	n := 0
	for _, nt := range m.notes {
		if nt.kind == exchangeNote && nt.step {
			n++
		}
	}
	return n
}

// ControlWords returns the control words each server sent, over every
// exchange. TotalComm does not count them.
func (m *Metrics) ControlWords() int64 {
	var n int64
	for _, nt := range m.notes {
		if nt.kind == exchangeNote {
			n += int64(nt.k)
		}
	}
	return n
}
