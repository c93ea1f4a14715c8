// Package sortmpc implements parallel sorting in the MPC model
// (slides 99–106): PSRS — Parallel Sort by Regular Sampling — with both
// the classical regular-sample splitter selection and the modern
// random-sampling variant, plus a fan-limited multi-round sort that
// demonstrates the Goodrich-style log_L N round/load trade-off when the
// per-round fan-out is constrained.
//
// All sorts operate on a distributed relation (one fragment per server)
// ordered lexicographically by a list of key attributes; on completion
// server i holds the i-th contiguous key range, locally sorted, so the
// concatenation over servers in id order is globally sorted. Composite
// keys matter: the parallel sort join sorts by (joinKey, uniqueId) so
// that a heavy join value can split across servers while the partition
// stays balanced.
package sortmpc

import (
	"fmt"
	"sort"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// Result reports what a distributed sort did.
type Result struct {
	Splitters [][]relation.Value // p-1 composite-key interval boundaries
	Rounds    int                // rounds used by this sort alone
}

// LexLess compares two composite keys lexicographically.
func LexLess(a, b []relation.Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// IntervalOf returns the index of the splitter interval containing key
// k: interval i covers (splitters[i-1], splitters[i]]; keys above the
// last splitter go to the final interval. With no splitters it returns
// 0.
func IntervalOf(k []relation.Value, splitters [][]relation.Value) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if LexLess(splitters[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PSRS sorts the distributed relation name by keyAttrs using parallel
// sort by regular sampling (slides 100–101):
//
//  1. each server sorts its fragment locally and broadcasts p−1
//     regular samples;
//  2. every server independently derives identical global splitters by
//     sorting the p(p−1) samples and taking every p-th;
//  3. tuples are routed to the server owning their key interval;
//  4. each server sorts its received interval locally.
//
// The sorted output is stored under outName. Two communication rounds
// (sample broadcast + partition).
func PSRS(c *mpc.Cluster, name string, keyAttrs []string, outName string) *Result {
	return psrs(c, name, keyAttrs, outName, true, 0)
}

// PSRSRandomSample is PSRS with the "modern implementation" splitter
// selection (slide 102): instead of sorting locally first, each server
// broadcasts samplesPerServer random samples of its fragment. Local
// sorting happens only once, after partitioning.
func PSRSRandomSample(c *mpc.Cluster, name string, keyAttrs []string, outName string, samplesPerServer int) *Result {
	return psrs(c, name, keyAttrs, outName, false, samplesPerServer)
}

func keyCols(frag *relation.Relation, keyAttrs []string) []int {
	cols := frag.MustCols(keyAttrs)
	return cols
}

func keyOf(row []relation.Value, cols []int) []relation.Value {
	k := make([]relation.Value, len(cols))
	for i, c := range cols {
		k[i] = row[c]
	}
	return k
}

func psrs(c *mpc.Cluster, name string, keyAttrs []string, outName string, regular bool, samplesPerServer int) *Result {
	if len(keyAttrs) == 0 {
		panic("sortmpc: no key attributes")
	}
	p := c.P()
	variant := "regular-sample"
	if !regular {
		variant = "random-sample"
	}
	c.Note("sortmpc.PSRS %s by %v (%s)", name, keyAttrs, variant)
	startRounds := c.Metrics().Rounds()
	arity := len(keyAttrs)
	sampleAttrs := make([]string, arity)
	for i := range sampleAttrs {
		sampleAttrs[i] = fmt.Sprintf("k%d", i)
	}
	// Round 1: local sample selection + broadcast.
	c.Round("sort:sample", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel(name)
		st := out.Open(outName+":samples", sampleAttrs...)
		if frag == nil || frag.Len() == 0 {
			return
		}
		cols := keyCols(frag, keyAttrs)
		if regular {
			frag.SortBy(keyAttrs...)
			n := frag.Len()
			for i := 1; i < p; i++ {
				idx := i * n / p
				if idx >= n {
					idx = n - 1
				}
				st.Broadcast(keyOf(frag.Row(idx), cols)...)
			}
		} else {
			n := frag.Len()
			for i := 0; i < samplesPerServer; i++ {
				st.Broadcast(keyOf(frag.Row(s.Rng().Intn(n)), cols)...)
			}
		}
	})
	// Every server received the identical sample multiset; derive the
	// splitters once on the driver from server 0's copy.
	var samples [][]relation.Value
	if srel := c.Server(0).Rel(outName + ":samples"); srel != nil {
		for i := 0; i < srel.Len(); i++ {
			samples = append(samples, append([]relation.Value(nil), srel.Row(i)...))
		}
	}
	sort.Slice(samples, func(a, b int) bool { return LexLess(samples[a], samples[b]) })
	var splitters [][]relation.Value
	if len(samples) > 0 {
		for i := 1; i < p; i++ {
			idx := i * len(samples) / p
			if idx >= len(samples) {
				idx = len(samples) - 1
			}
			splitters = append(splitters, samples[idx])
		}
	}
	c.DeleteAll(outName + ":samples")

	// Round 2: partition by splitter interval.
	c.Round("sort:partition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel(name)
		if frag == nil || frag.Len() == 0 {
			return
		}
		st := out.Open(outName, frag.Attrs()...)
		cols := keyCols(frag, keyAttrs)
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			st.SendRow(IntervalOf(keyOf(row, cols), splitters), row)
		}
	})
	// Local sort of each interval.
	c.LocalStep(func(s *mpc.Server) {
		if frag := s.Rel(outName); frag != nil {
			frag.SortBy(keyAttrs...)
		}
	})
	return &Result{
		Splitters: splitters,
		Rounds:    c.Metrics().Rounds() - startRounds,
	}
}

// FanLimitedSort sorts like PSRS but limits each round's fan-out to at
// most fan destination groups per server, partitioning the servers
// hierarchically: round 1 splits the key space into `fan` coarse ranges
// owned by contiguous server groups, round 2 refines each group, and so
// on — ceil(log_fan p) partition levels in total. This mirrors the
// structure behind the Ω(log_L N) sorting round lower bound (slide
// 105): a bounded per-round fan-out (bounded L) forces logarithmically
// many rounds.
func FanLimitedSort(c *mpc.Cluster, name string, keyAttrs []string, outName string, fan int) *Result {
	if fan < 2 {
		panic(fmt.Sprintf("sortmpc: fan = %d, need ≥ 2", fan))
	}
	p := c.P()
	c.Note("sortmpc.FanLimitedSort %s by %v (fan %d)", name, keyAttrs, fan)
	startRounds := c.Metrics().Rounds()
	cur := name
	level := 0
	groupSize := p
	for groupSize > 1 {
		next := fmt.Sprintf("%s:lvl%d", outName, level)
		sortFanLevel(c, cur, keyAttrs, next, fan, groupSize)
		if cur != name {
			c.DeleteAll(cur)
		}
		cur = next
		groupSize = (groupSize + fan - 1) / fan
		level++
	}
	// Rename the final level into outName and sort locally.
	final := cur
	c.LocalStep(func(s *mpc.Server) {
		if frag := s.Rel(final); frag != nil {
			frag.SortBy(keyAttrs...)
			s.Put(frag.Rename(outName))
			s.Delete(final)
		}
	})
	return &Result{Rounds: c.Metrics().Rounds() - startRounds}
}

// sortFanLevel refines the assignment of tuples to server groups: the
// cluster is currently divided into groups of groupSize consecutive
// servers, each group owning a contiguous key range; this level splits
// every group into at most fan subgroups using sampled splitters.
func sortFanLevel(c *mpc.Cluster, name string, keyAttrs []string, outName string, fan, groupSize int) {
	p := c.P()
	arity := len(keyAttrs)
	sampleAttrs := make([]string, arity+1)
	sampleAttrs[0] = "grp"
	for i := 0; i < arity; i++ {
		sampleAttrs[i+1] = fmt.Sprintf("k%d", i)
	}
	c.Round("fansort:sample", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel(name)
		st := out.Open(outName+":samples", sampleAttrs...)
		if frag == nil || frag.Len() == 0 {
			return
		}
		cols := keyCols(frag, keyAttrs)
		grp := s.ID() / groupSize
		n := frag.Len()
		for i := 0; i < fan*4; i++ {
			row := frag.Row(s.Rng().Intn(n))
			vals := append([]relation.Value{relation.Value(grp)}, keyOf(row, cols)...)
			st.Broadcast(vals...)
		}
	})
	groups := (p + groupSize - 1) / groupSize
	perGroup := make([][][]relation.Value, groups)
	if srel := c.Server(0).Rel(outName + ":samples"); srel != nil {
		for i := 0; i < srel.Len(); i++ {
			row := srel.Row(i)
			g := int(row[0])
			perGroup[g] = append(perGroup[g], append([]relation.Value(nil), row[1:]...))
		}
	}
	splitters := make([][][]relation.Value, groups)
	for g := range perGroup {
		ks := perGroup[g]
		sort.Slice(ks, func(a, b int) bool { return LexLess(ks[a], ks[b]) })
		var sp [][]relation.Value
		if len(ks) > 0 {
			for i := 1; i < fan; i++ {
				idx := i * len(ks) / fan
				if idx >= len(ks) {
					idx = len(ks) - 1
				}
				sp = append(sp, ks[idx])
			}
		}
		splitters[g] = sp
	}
	c.DeleteAll(outName + ":samples")
	subSize := (groupSize + fan - 1) / fan
	c.Round("fansort:partition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel(name)
		if frag == nil || frag.Len() == 0 {
			return
		}
		st := out.Open(outName, frag.Attrs()...)
		cols := keyCols(frag, keyAttrs)
		grp := s.ID() / groupSize
		base := grp * groupSize
		end := base + groupSize
		if end > c.P() {
			end = c.P() // partial last group
		}
		maxSub := (end - 1 - base) / subSize
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			sub := IntervalOf(keyOf(row, cols), splitters[grp])
			if sub > maxSub {
				// A partial group has fewer subgroups than fan; the
				// largest key intervals collapse into the last subgroup,
				// preserving global order.
				sub = maxSub
			}
			// Route round-robin within the subgroup to keep loads
			// balanced; deeper levels refine the order.
			lo := base + sub*subSize
			hi := lo + subSize
			if hi > end {
				hi = end
			}
			st.SendRow(lo+i%(hi-lo), row)
		}
	})
}

// VerifySorted checks that the distributed relation outName is globally
// sorted by keyAttrs: each fragment is locally sorted and fragment key
// ranges are non-overlapping in server order. It returns an error
// describing the first violation. On a cluster that failed a round it
// returns that failure, c.Err(), before it reads any fragment: a
// partial output must not pass as sorted.
func VerifySorted(c *mpc.Cluster, outName string, keyAttrs []string) error {
	if err := c.Err(); err != nil {
		return err
	}
	var prev []relation.Value
	for i := 0; i < c.P(); i++ {
		frag := c.Server(i).Rel(outName)
		if frag == nil || frag.Len() == 0 {
			continue
		}
		cols := keyCols(frag, keyAttrs)
		for j := 0; j < frag.Len(); j++ {
			k := keyOf(frag.Row(j), cols)
			if prev != nil && LexLess(k, prev) {
				return fmt.Errorf("sortmpc: server %d row %d key %v < previous max %v", i, j, k, prev)
			}
			prev = k
		}
	}
	return nil
}
