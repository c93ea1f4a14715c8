package experiments

// TestExperiments holds every experiment to its table in EXPERIMENTS.md:
// the block between `<!-- experiment ID -->` and `<!-- /experiment -->`.
// The (L, r, C) cells are exact counts, so a change to any measured
// value fails here. After an intended change, rewrite the blocks that
// moved with
//
//	go test ./internal/experiments -run TestExperiments -update
//
// and list them in the change description: that diff is the record.
// Text outside the markers is hand-written and never rewritten.

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the EXPERIMENTS.md tables that moved")

const (
	goldenPath = "../../EXPERIMENTS.md"
	beginMark  = "<!-- experiment "
	endMark    = "<!-- /experiment -->\n"
)

func TestExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseGolden(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range doc.ids {
		if ByID(id) == nil {
			t.Errorf("EXPERIMENTS.md has a block for %s, which names no experiment", id)
		}
		if slices.Index(doc.ids, id) != i {
			t.Errorf("EXPERIMENTS.md has more than one block for %s", id)
		}
	}
	// One at a time: the largest experiments each hold GBs of heap.
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			cols, err := runDependent(tbl)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.Index(doc.ids, e.ID)
			if i < 0 {
				t.Fatalf("EXPERIMENTS.md has no block; add the lines %q and %q where the table belongs, then run with -update",
					beginMark+e.ID+" -->", strings.TrimSuffix(endMark, "\n"))
			}
			got := tbl.Markdown()
			line, want, have := firstDiff(shape(doc.bodies[i], cols), shape(got, cols))
			if line == 0 {
				return
			}
			if *update {
				doc.bodies[i] = got
				return
			}
			t.Errorf("table differs from EXPERIMENTS.md at line %d of its block (rewrite with -update if intended):\n  doc: %s\n  got: %s",
				line, want, have)
		})
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// golden is EXPERIMENTS.md cut at its experiment markers, which are
// whole lines: text[i] comes before block i, and the last text after
// the last block.
type golden struct {
	text   []string
	ids    []string
	bodies []string
}

func parseGolden(doc string) (*golden, error) {
	g := &golden{}
	var text, body strings.Builder
	id := "" // the open block's experiment, "" between blocks
	for _, line := range strings.SplitAfter(doc, "\n") {
		switch {
		case strings.HasPrefix(line, beginMark):
			if id != "" {
				return nil, fmt.Errorf("EXPERIMENTS.md: block %s has no end marker before the next block", id)
			}
			id = strings.TrimSuffix(strings.TrimPrefix(line, beginMark), " -->\n")
			g.text = append(g.text, text.String())
			text.Reset()
		case id != "" && line == endMark:
			g.ids = append(g.ids, id)
			g.bodies = append(g.bodies, body.String())
			body.Reset()
			id = ""
		case id != "":
			body.WriteString(line)
		default:
			text.WriteString(line)
		}
	}
	if id != "" {
		return nil, fmt.Errorf("EXPERIMENTS.md: block %s has no end marker", id)
	}
	g.text = append(g.text, text.String())
	return g, nil
}

func (g *golden) String() string {
	var b strings.Builder
	for i, id := range g.ids {
		fmt.Fprintf(&b, "%s%s%s -->\n%s%s", g.text[i], beginMark, id, g.bodies[i], endMark)
	}
	b.WriteString(g.text[len(g.ids)])
	return b.String()
}

// runDependent returns the header positions of tbl.RunDependent.
func runDependent(tbl *Table) ([]int, error) {
	var cols []int
	for _, name := range tbl.RunDependent {
		i := slices.Index(tbl.Header, name)
		if i < 0 {
			return nil, fmt.Errorf("run-dependent column %q is not in the header %q", name, tbl.Header)
		}
		cols = append(cols, i)
	}
	return cols, nil
}

// shape blanks the given columns in the data rows of a rendered table,
// so that two renderings differing only there compare equal.
func shape(md string, cols []int) string {
	if len(cols) == 0 {
		return md
	}
	lines := strings.Split(md, "\n")
	rows := 0
	for i, line := range lines {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if rows++; rows <= 2 { // header and separator
			continue
		}
		c := cells(line)
		for _, j := range cols {
			if j < len(c) {
				c[j] = "…"
			}
		}
		lines[i] = "| " + strings.Join(c, " | ") + " |"
	}
	return strings.Join(lines, "\n")
}

// cells splits a rendered markdown table row at its unescaped pipes.
func cells(row string) []string {
	var out []string
	start := -1
	for i := 0; i < len(row); i++ {
		switch row[i] {
		case '\\':
			i++
		case '|':
			if start >= 0 {
				out = append(out, strings.TrimSpace(row[start:i]))
			}
			start = i + 1
		}
	}
	return out
}

// firstDiff returns the 1-based number of the first line where a and b
// differ, with both lines, or 0 when they are equal.
func firstDiff(a, b string) (int, string, string) {
	if a == b {
		return 0, "", ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of block)"
	}
	for i := 0; ; i++ {
		if x, y := at(al, i), at(bl, i); x != y {
			return i + 1, x, y
		}
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tbl := &Table{ID: "T", Title: "t", SlideRef: "s", Header: []string{"|R|", "|R|,|S|,|T|", "plain"}}
	tbl.AddRow("1", "a|b", "2")
	rows := 0
	for _, line := range strings.Split(tbl.Markdown(), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		rows++
		if got := len(cells(line)); got != len(tbl.Header) {
			t.Errorf("%q renders %d cells, the header has %d", line, got, len(tbl.Header))
		}
	}
	if rows != 3 {
		t.Fatalf("rendered %d table rows, want 3", rows)
	}
}

// TestRunDependentComparesShape pins what the golden comparison ignores
// in a run-dependent column (its values) and what it does not (header,
// row labels, row count, the other columns).
func TestRunDependentComparesShape(t *testing.T) {
	render := func(rows ...[]string) string {
		tbl := &Table{ID: "T", Title: "t", SlideRef: "s", Header: []string{"label", "time", "L"}}
		for _, r := range rows {
			tbl.AddRow(r...)
		}
		return tbl.Markdown()
	}
	cols := []int{1}
	base := shape(render([]string{"a", "5ms", "10"}, []string{"b", "7ms", "20"}), cols)
	for _, tc := range []struct {
		name string
		md   string
		same bool
	}{
		{"other times", render([]string{"a", "6ms", "10"}, []string{"b", "9ms", "20"}), true},
		{"other L", render([]string{"a", "5ms", "11"}, []string{"b", "7ms", "20"}), false},
		{"other label", render([]string{"c", "5ms", "10"}, []string{"b", "7ms", "20"}), false},
		{"a row fewer", render([]string{"a", "5ms", "10"}), false},
	} {
		if same := shape(tc.md, cols) == base; same != tc.same {
			t.Errorf("%s: compares equal = %v, want %v", tc.name, same, tc.same)
		}
	}
}

// Markdown renders the table as GitHub-flavored markdown. A '|' inside
// a cell is escaped, so it cannot split the cell.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n*Source: %s*\n\n", t.ID, t.Title, t.SlideRef)
	row := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			fmt.Fprintf(&b, " %s |", strings.ReplaceAll(c, "|", `\|`))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	fmt.Fprintf(&b, "|%s\n", strings.Repeat(" --- |", len(t.Header)))
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	for _, ch := range t.Charts {
		fmt.Fprintf(&b, "\n```\n%s```\n", ch.Render())
	}
	b.WriteByte('\n')
	return b.String()
}
