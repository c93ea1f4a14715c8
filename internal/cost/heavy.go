package cost

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// DetectHeavy finds heavy hitters on servers that do not know them, in
// the tutorial's two rounds (slides 29 and 47), and returns per group
// what stats.Heavy returns on the union of the fragments: the values
// whose degree reaches threshold under rule, sorted, each with its exact
// degree in every column of the group. A threshold below 1 counts as 1.
// A column's Rel stands for the fragments the servers hold under its
// name.
//
//	name:degrees: each server sends, per group in order and per distinct
//	    value ascending, one summary (v, its degree in each column) to
//	    the value's owner Bucket(Hash64(v, seed) ^ g, p), g the group's
//	    index;
//	name:heavy: each owner sums its summaries and broadcasts every
//	    value that reaches threshold with its global degrees.
//
// The summaries travel on outName:deg<g> and the hitters on
// outName:heavy<g>; both are deleted before DetectHeavy returns.
func DetectHeavy(c *mpc.Cluster, name, outName string, seed uint64, groups [][]stats.Column, threshold int, rule stats.Rule) [][]stats.Hitter {
	p, t := c.P(), max(threshold, 1)
	deg := func(g int) string { return fmt.Sprintf("%s:deg%d", outName, g) }
	heavy := func(g int) string { return fmt.Sprintf("%s:heavy%d", outName, g) }
	schemas := make([][]string, len(groups))
	for g, cols := range groups {
		schemas[g] = []string{"v"}
		for j := range cols {
			schemas[g] = append(schemas[g], fmt.Sprintf("d%d", j))
		}
	}

	c.Round(name+":degrees", func(srv *mpc.Server, out *mpc.Out) {
		for g, cols := range groups {
			st := out.Open(deg(g), schemas[g]...)
			pairs := relation.New("pairs", "v", "c")
			for j, col := range cols {
				frag := srv.Rel(col.Rel.Name())
				if frag == nil {
					continue
				}
				flat, step := frag.Flat(), frag.Arity()
				for i := col.Col; i < len(flat); i += step {
					pairs.Append(flat[i], relation.Value(j))
				}
			}
			counts := relation.GroupBy("counts", pairs, []string{"v", "c"}, relation.Count, "", "n")
			eachValue(counts, len(cols), func(row []relation.Value) {
				st.Send(relation.Bucket(relation.Hash64(row[0], seed)^uint64(g), p), row...)
			})
		}
	})

	c.Round(name+":heavy", func(srv *mpc.Server, out *mpc.Out) {
		for g, cols := range groups {
			st := out.Open(heavy(g), schemas[g]...)
			summaries := srv.Rel(deg(g))
			if summaries == nil {
				continue
			}
			srv.Delete(deg(g))
			// Unpivot the summaries into (v, column, degree) so that one
			// grouped sum adds them up per (value, column).
			parts := relation.New("parts", "v", "c", "n")
			for i := 0; i < summaries.Len(); i++ {
				row := summaries.Row(i)
				for j, d := range row[1:] {
					parts.Append(row[0], relation.Value(j), d)
				}
			}
			sums := relation.GroupBy("sums", parts, []string{"v", "c"}, relation.Sum, "n", "n")
			degs := make([]int, len(cols))
			eachValue(sums, len(cols), func(row []relation.Value) {
				for j, d := range row[1:] {
					degs[j] = int(d)
				}
				if rule.Reaches(degs, t) {
					st.Broadcast(row...)
				}
			})
		}
	})

	// Every server holds the same broadcast; read server 0's copy.
	out := make([][]stats.Hitter, len(groups))
	for g := range groups {
		if hr := c.Server(0).Rel(heavy(g)); hr != nil {
			hr.Sort()
			for i := 0; i < hr.Len(); i++ {
				row := hr.Row(i)
				h := stats.Hitter{Value: row[0], Deg: make([]int, len(row)-1)}
				for j, d := range row[1:] {
					h.Deg[j] = int(d)
				}
				out[g] = append(out[g], h)
			}
		}
		c.DeleteAll(heavy(g))
	}
	return out
}

// eachValue walks rows (v, c, n) sorted by (v, c), distinct on (v, c),
// and calls fn once per value v, ascending, with the row (v, deg...) of
// length 1+k in which deg[c] = n and the absent columns are 0. fn must
// not keep the row.
func eachValue(rel *relation.Relation, k int, fn func(row []relation.Value)) {
	row := make([]relation.Value, 1+k)
	flat := rel.Flat()
	for i := 0; i < len(flat); {
		clear(row)
		row[0] = flat[i]
		for ; i < len(flat) && flat[i] == row[0]; i += 3 {
			row[1+flat[i+1]] = flat[i+2]
		}
		fn(row)
	}
}
