package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID       string
	Title    string
	SlideRef string
	Header   []string
	Rows     [][]string
	Notes    []string
	// Charts render figure-type artifacts (curves) under the table.
	Charts []*Chart
	// RunDependent names the header columns whose cells change from run
	// to run (wall times, rates under concurrency). EXPERIMENTS.md pins
	// only their shape: header, row labels and row count.
	RunDependent []string

	// err is the first malformed row AddRow refused.
	err error
}

// AddRow appends a formatted row. A row whose cell count differs from
// the header's is refused, and the experiment fails (Experiment.Run).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		if t.err == nil {
			t.err = fmt.Errorf("row %d has %d cells, header has %d", len(t.Rows)+1, len(cells), len(t.Header))
		}
		return
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-text note shown under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", t.ID, t.Title, t.SlideRef)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, ch := range t.Charts {
		b.WriteByte('\n')
		b.WriteString(ch.Render())
	}
	return b.String()
}

// Experiment pairs an ID with its driver.
type Experiment struct {
	ID    string
	Title string
	run   func() (*Table, error)
}

// Run executes the experiment. It fails when the driver does (an
// algorithm error, or a measurement that contradicts the claim the
// table illustrates) and when the driver built a malformed row.
func (e Experiment) Run() (*Table, error) {
	t, err := e.run()
	if err == nil && t.err != nil {
		t, err = nil, t.err
	}
	return t, err
}

// All lists every experiment in the order mpcbench runs them and
// EXPERIMENTS.md shows them: the tutorial's E01–E20, the design-choice
// ablations A01–A07, then the extensions E21–E28.
var All = []Experiment{
	{"E01", "MPC cost regimes", E01CostRegimes},
	{"E02", "Hash-join load concentration vs degree", E02LoadConcentration},
	{"E03", "Skew-threshold curve", E03SkewThreshold},
	{"E04", "Cartesian product grid load", E04Cartesian},
	{"E05", "Skew-aware two-way join", E05SkewJoin},
	{"E06", "Parallel sort join", E06SortJoin},
	{"E07", "Triangle HyperCube vs baselines", E07TriangleHC},
	{"E08", "Unequal-size triangle shares", E08UnequalShares},
	{"E09", "HyperCube speedup curve", E09Speedup},
	{"E10", "SkewHC residual patterns", E10SkewHC},
	{"E11", "1-round vs multi-round summary", E11OneVsMulti},
	{"E12", "Scalability limit of IN/p^{1/τ*}", E12ScalabilityLimit},
	{"E13", "Binary-join intermediate blowup", E13IntermediateBlowup},
	{"E14", "Yannakakis and GYM round counts", E14GYM},
	{"E15", "GYM vs HyperCube crossover", E15Crossover},
	{"E16", "GHD width/depth trade-off", E16WidthDepth},
	{"E17", "PSRS load scaling", E17PSRS},
	{"E18", "Sorting round/communication bounds", E18SortBounds},
	{"E19", "Matrix multiplication costs", E19MatMul},
	{"E20", "Communication vs load trade-off", E20CommLoadTradeoff},
	{"A01", "HyperCube share rounding: floor vs greedy", A01ShareRounding},
	{"A02", "Local join algorithm under HyperCube", A02LocalJoin},
	{"A03", "PSRS splitter selection: regular vs random", A03Splitters},
	{"A04", "Square-block matmul group size g", A04MatMulGroups},
	{"A05", "Aggregation combiner on/off", A05Combiner},
	{"A06", "HL+Semijoins vs SkewHC vs plain HC", A06HLSemijoins},
	{"A07", "BiGJoin variable-order sensitivity", A07BigJoinOrder},
	{"E21", "Sparse and non-square matrix multiplication", E21SparseMatMul},
	{"E22", "BiGJoin (variable-at-a-time) vs HyperCube", E22BigJoin},
	{"E23", "Exhaustive share sweep: certifying HyperCube optimality", E23ShareSweep},
	{"E24", "Planner accuracy: predicted vs measured load", E24PlannerAccuracy},
	{"E25", "Recursive queries: rounds track iterations, iterations track diameter", E25RecursiveRounds},
	{"E26", "Incremental view maintenance: delta cost scales with the batch, not the base", E26IVMDeltaScaling},
	{"E27", "Query service throughput: plan cache and admission under tenant mixes", E27ServiceThroughput},
	{"E28", "Adaptive skew-reactive execution and heterogeneity-aware shares", E28Adaptive},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// helpers

func fmtInt(v int64) string { return fmt.Sprintf("%d", v) }
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }
func fmtRatio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", a/b)
}
func fmtSci(v float64) string { return fmt.Sprintf("%.3g", v) }
