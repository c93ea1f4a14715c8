package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as the EXPLAIN listing: the query, the
// collected statistics, and one line per candidate — predicted
// (L, r, C) for applicable strategies, the rejection reason for every
// loser, and the chosen plan marked with '*'. The output is
// deterministic: the same query, relations, p, and options produce
// byte-identical text (asserted by TestExplainDeterministic).
func (pl *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s  (p=%d", pl.Stats.Query.Name, pl.Stats.P)
	if pl.Opts.MaxRounds > 0 {
		fmt.Fprintf(&b, ", round budget %d", pl.Opts.MaxRounds)
	}
	if pl.Opts.Aggregate != nil {
		fmt.Fprintf(&b, ", group-by %s", strings.Join(pl.Opts.Aggregate.GroupBy, ","))
	}
	b.WriteString(")\n")
	if caps := pl.Opts.Capacities; len(caps) > 0 {
		fmt.Fprintf(&b, "  capacities %v\n", caps)
	}
	fmt.Fprintf(&b, "  %s\n", pl.Stats.Query)
	for _, line := range strings.Split(strings.TrimRight(pl.Stats.String(), "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteString("candidates:\n")
	wroteInapplicable := false
	for i, c := range pl.Candidates {
		if !c.Applicable && !wroteInapplicable {
			b.WriteString("not applicable:\n")
			wroteInapplicable = true
		}
		mark := "  "
		if i == pl.Chosen {
			mark = "* "
		}
		if c.Applicable {
			fmt.Fprintf(&b, "%s%-12s %s", mark, c.Alg, c.Est)
			if c.Rejection != "" {
				fmt.Fprintf(&b, "  -- %s", c.Rejection)
			}
		} else {
			fmt.Fprintf(&b, "%s%-12s %s", mark, c.Alg, c.Rejection)
		}
		b.WriteByte('\n')
	}
	if best := pl.Best(); best != nil {
		fmt.Fprintf(&b, "chosen: %s — %s\n", best.Alg, best.Doc)
	} else {
		b.WriteString("chosen: none\n")
	}
	return b.String()
}
