package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/plan"
	"mpcquery/internal/query"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/trace"
)

// namedJob resolves a -query name exactly as run() does and returns the
// job with its relations bound to the compiled query's atoms.
func namedJob(t *testing.T, name string, alg core.Algorithm, n int, skew string, seed int64) (*job, map[string]*relation.Relation) {
	t.Helper()
	j, err := queryJob("", name, alg, "", n, skew, seed)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := j.compiled.BindRelations(j.rels)
	if err != nil {
		t.Fatal(err)
	}
	return j, bound
}

func TestNamedQuery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		atoms int
		ok    bool
	}{
		{"triangle", 3, true},
		{"join2", 2, true},
		{"rst", 3, true},
		{"product", 2, true},
		{"path5", 5, true},
		{"star3", 3, true},
		{"cycle4", 4, true},
		{"pathX", 0, false},
		{"path0", 0, false},
		{"nonsense", 0, false},
	} {
		q, err := namedQuery(tc.name)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			}
			continue
		}
		if len(q.Atoms) != tc.atoms {
			t.Errorf("%s: %d atoms, want %d", tc.name, len(q.Atoms), tc.atoms)
		}
	}
}

// TestNamedQueryCompilesToItself pins the single input path: a named
// query written out as its full-head rule and sent through
// internal/query compiles back to exactly the hypergraph constructor's
// query, head in Vars() order.
func TestNamedQueryCompilesToItself(t *testing.T) {
	for _, name := range []string{"triangle", "join2", "rst", "product", "path4", "star3", "cycle5"} {
		want, _ := namedQuery(name)
		j, _ := namedJob(t, name, core.AlgAuto, 10, "none", 1)
		if !reflect.DeepEqual(j.compiled.Query, want) || !reflect.DeepEqual(j.compiled.Head, want.Vars()) {
			t.Errorf("%s compiled to %s with head %v, want %s with head %v", name, j.compiled.Query, j.compiled.Head, want, want.Vars())
		}
	}
}

// TestBareBody covers the -q shorthand: a bare body is the full-head
// rule adhoc(<every body variable>) :- body, parsed by internal/query.
// The accepted and rejected inputs are the ones hypergraph.Parse (the
// retired second parser) was tested on.
func TestBareBody(t *testing.T) {
	compile := func(body string) (*query.Compiled, error) {
		j, err := queryJob(body, "triangle", core.AlgAuto, "", 10, "none", 1)
		if err != nil {
			return nil, err
		}
		return j.compiled, nil
	}
	sameAtoms := func(got, want hypergraph.Query) bool { return reflect.DeepEqual(got.Atoms, want.Atoms) }

	c, err := compile("R(x,y), S(y,z), T(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if !sameAtoms(c.Query, hypergraph.Triangle()) || c.Query.Name != "adhoc" || !reflect.DeepEqual(c.Head, []string{"x", "y", "z"}) {
		t.Errorf("triangle body compiled to %s with head %v", c.Query, c.Head)
	}
	c, err = compile("  R( x ) ,S(x , y),  T(y)  ")
	if err != nil {
		t.Fatal(err)
	}
	if !sameAtoms(c.Query, hypergraph.RST()) {
		t.Errorf("whitespace + unary body compiled to %s", c.Query)
	}
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.TwoWayJoin(), hypergraph.RST(), hypergraph.Path(4), hypergraph.Star(3), hypergraph.Cycle(5)} {
		atoms := make([]string, len(q.Atoms))
		for i, a := range q.Atoms {
			atoms[i] = a.String()
		}
		body := strings.Join(atoms, ", ")
		c, err := compile(body)
		if err != nil {
			t.Fatalf("%s: %v (body %q)", q.Name, err, body)
		}
		if !sameAtoms(c.Query, q) {
			t.Errorf("round trip of %q gave %s", body, c.Query)
		}
	}
	// A repeated relation name is a self-join, as everywhere in the
	// frontend (hypergraph.Parse rejected it).
	c, err = compile("R(x,y), R(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if c.Query.Atoms[1].Name != "R#2" || c.RelFor["R#2"] != "R" {
		t.Errorf("self-join body compiled to %s", c.Query)
	}

	for _, body := range []string{
		"R",
		"R(",
		"R()",
		"R(x,)",
		"R)x(",
		"R(x,y)),",
		"R(x) S(y)",       // missing comma
		"R(x),",           // trailing comma
		"R(x,y), , S(y)",  // empty atom slot
		"R(x), R(y,z)",    // one relation, two arities
		"R(x,x)",          // repeated variable
		"1R(x)",           // bad atom name
		"R(9x)",           // bad variable
		"R(x-y)",          // bad character
		"R((x)",           // stray paren inside vars
		"R(xR(xR(x",       // unclosed, nested
		"adhoc(x,y)",      // the synthesised head's own name
		"R(x,y). S(y,z).", // more than one conjunction
	} {
		if _, err := compile(body); err == nil {
			t.Errorf("body %q should be rejected", body)
		}
	}

	// Errors point into the text the user typed, not the synthesised rule.
	_, err = compile("R(x,y) S(y,z)")
	if err == nil || !strings.Contains(err.Error(), "1:8:") {
		t.Errorf("missing-comma error = %v, want position 1:8", err)
	}
	_, err = compile("R(x,y), S(z,z)")
	if err == nil || !strings.Contains(err.Error(), "1:13:") {
		t.Errorf("repeated-variable error = %v, want position 1:13", err)
	}
}

// TestGenerate checks the one generator under all three skew profiles
// and — the path that used to fall through to uniform data — that a
// Datalog query under -skew heavy really gets its heavy hitter.
func TestGenerate(t *testing.T) {
	for _, skew := range []string{"none", "zipf", "heavy"} {
		for arity := 1; arity <= 3; arity++ {
			r := generate("R", arity, 500, skew, 1)
			if r.Name() != "R" || r.Len() != 500 || r.Arity() != arity {
				t.Fatalf("%s/arity %d: relation malformed: %d x %d", skew, arity, r.Len(), r.Arity())
			}
		}
	}
	for _, src := range []string{"triangle", "q(x,y,z) :- R(x,y), S(y,z)."} {
		j, err := queryJob("", src, core.AlgAuto, "", 500, "heavy", 1)
		if err != nil {
			t.Fatal(err)
		}
		r := j.rels["R"]
		if hh := stats.Heavy([]stats.Column{{Rel: r, Col: 0}}, 90, stats.InAny); len(hh) == 0 {
			t.Errorf("%s: heavy skew left no value of degree ≥ 90, want one of ≈ n/5", src)
		}
	}
}

// TestEndToEndViaEngine exercises the same path main() drives.
func TestEndToEndViaEngine(t *testing.T) {
	j, rels := namedJob(t, "triangle", core.AlgAuto, 300, "none", 2)
	exec, err := j.execute(core.NewEngine(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(j.compiled.Query, rels)
	if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("engine output differs from reference")
	}
}

// TestChaosViaEngine exercises the -chaos path main() drives: an
// engine with a fault schedule attached must produce the same output
// and (L, r, C) as the fault-free engine, and a schedule with a
// permanent fault must return a RecoveryFailure, with no Execution.
func TestChaosViaEngine(t *testing.T) {
	j, _ := namedJob(t, "triangle", core.AlgAuto, 300, "none", 2)
	cleanExec, err := j.execute(core.NewEngine(8, 1))
	if err != nil {
		t.Fatal(err)
	}

	engine := core.NewEngine(8, 1)
	engine.Chaos = chaos.MustParseSchedule("7:drop=0.1,dup=0.05,crash=0.1,straggle=0.2")
	exec, err := j.execute(engine)
	if err != nil {
		t.Fatalf("chaos execution failed: %v", err)
	}
	if exec.MaxLoad != cleanExec.MaxLoad || exec.Rounds != cleanExec.Rounds || exec.TotalComm != cleanExec.TotalComm {
		t.Fatalf("chaos (L,r,C) = (%d,%d,%d), fault-free (%d,%d,%d)",
			exec.MaxLoad, exec.Rounds, exec.TotalComm, cleanExec.MaxLoad, cleanExec.Rounds, cleanExec.TotalComm)
	}
	if got, want := exec.Output, cleanExec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("chaos engine output differs from fault-free engine")
	}

	// Permanent faults (persist ≥ attempts) must fail loudly.
	engine.Chaos = chaos.MustParseSchedule("7:drop=0.5,persist=4,attempts=3")
	exec, err = j.execute(engine)
	var failure *mpc.RecoveryFailure
	if !errors.As(err, &failure) || exec != nil {
		t.Fatalf("permanent-fault schedule returned %v and Execution %v, want a RecoveryFailure and none", err, exec)
	}
}

func TestHLTriangleViaEngine(t *testing.T) {
	j, rels := namedJob(t, "triangle", core.AlgHLTriangle, 400, "heavy", 3)
	engine := core.NewEngine(27, 1)
	exec, err := j.execute(engine)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(j.compiled.Query, rels)
	if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("HL triangle via engine differs from reference")
	}
	// HL on a non-triangle query must be rejected.
	j2, _ := namedJob(t, "path3", core.AlgHLTriangle, 100, "none", 1)
	if _, err := j2.execute(engine); err == nil {
		t.Fatal("expected error for HL on path query")
	}
}

// TestTraceViaEngine exercises the -trace path main() drives: an
// execution's ledger draws a consistent trace, and writeTrace emits
// both formats — the Chrome file parseable as trace_event JSON, the
// JSONL file round-tripping through the strict parser.
func TestTraceViaEngine(t *testing.T) {
	j, _ := namedJob(t, "triangle", core.AlgAuto, 300, "none", 2)
	exec, err := j.execute(core.NewEngine(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	events := exec.Metrics.Events()
	if len(events) == 0 {
		t.Fatal("the execution's ledger draws no events")
	}
	// The trace must carry the planner annotation and one frame pair per
	// metered round.
	starts, ends, annotates := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindRoundStart:
			starts++
		case trace.KindRoundEnd:
			ends++
		case trace.KindAnnotate:
			annotates++
		}
	}
	if starts != exec.Rounds || ends != exec.Rounds {
		t.Fatalf("trace has %d starts / %d ends, execution metered %d rounds", starts, ends, exec.Rounds)
	}
	if annotates == 0 {
		t.Fatal("no planner/algorithm annotations recorded")
	}

	dir := t.TempDir()
	for _, name := range []string{"out.jsonl", "out.json"} {
		path := filepath.Join(dir, name)
		if err := writeTrace(io.Discard, path, exec.Metrics); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if strings.HasSuffix(name, ".jsonl") {
			parsed, err := trace.ReadJSONL(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("JSONL trace does not parse back: %v", err)
			}
			if len(parsed) != len(events) {
				t.Fatalf("JSONL trace has %d events, the ledger draws %d", len(parsed), len(events))
			}
		} else {
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("Chrome trace is not valid trace_event JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("Chrome trace has no events")
			}
		}
	}
	// writeTrace without a path is a no-op.
	if err := writeTrace(io.Discard, "", exec.Metrics); err != nil {
		t.Error(err)
	}
}

// TestExplainViaPlanner exercises the -explain path: plan the triangle
// query over generated inputs and check the listing shows at least
// three applicable candidates, each with a predicted (L, r, C).
func TestExplainViaPlanner(t *testing.T) {
	j, rels := namedJob(t, "triangle", core.AlgAuto, 500, "none", 1)
	pl, err := plan.For(j.compiled.Query, rels, 8, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	applicable := 0
	for _, c := range pl.Candidates {
		if c.Applicable {
			applicable++
		}
	}
	if applicable < 3 {
		t.Fatalf("triangle has %d applicable candidates, want >= 3\n%s", applicable, pl.Explain())
	}
	out := pl.Explain()
	for _, want := range []string{"candidates:", "L≈", "r=", "C≈", "chosen: "} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
	// The CLI prints that listing and then what -alg auto would run: the
	// engine's own choice, which is not the listing's min-L one here.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-query", "triangle", "-n", "500", "-p", "8", "-explain"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-explain: exit %d: %s", code, stderr.String())
	}
	if want := out + "auto runs: hypercube — cyclic, no heavy hitters on a variable of share > 1: HyperCube\n"; stdout.String() != want {
		t.Errorf("-explain printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestReportSameLinesEveryKind drives run() — flags in, report out —
// for every kind of run and checks they all print the same report
// lines under the same flags. Datalog and -recursive runs used to
// ignore -verbose and never print the capacity or theory lines.
func TestReportSameLinesEveryKind(t *testing.T) {
	common := []string{"-n", "120", "-p", "4", "-verbose", "-capacities", "2,1,1,1", "-chaos", "7:drop=0.1"}
	for _, tc := range []struct {
		name        string
		args        []string
		conjunctive bool
	}{
		{"named", []string{"-query", "triangle"}, true},
		{"bare body", []string{"-q", "R(x,y), S(y,z)"}, true},
		{"datalog join", []string{"-q", "q(x,y,z) :- R(x,y), S(y,z)."}, true},
		{"datalog aggregate", []string{"-q", "spend(x, sum(z)) :- R(x,y), S(y,z)."}, true},
		{"datalog recursive", []string{"-q", "tc(x,y) :- E(x,y). tc(x,z) :- tc(x,y), E(y,z)."}, false},
		{"-recursive", []string{"-recursive", "cc"}, false},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, common...), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.name, code, stderr.String())
		}
		var labels []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, " ") {
				labels = append(labels, f[0])
			}
		}
		got := strings.Join(labels, " ")
		want := "servers transport algorithm output cost capacity chaos"
		if tc.conjunctive {
			want += " theory"
		} else {
			want = strings.Replace(want, "cost", "cost fixpoint", 1)
		}
		// The title lines differ by kind; the per-round table follows.
		if !strings.Contains(got, want+" rounds=") {
			t.Errorf("%s: report lines %q, want ... %s rounds=...", tc.name, got, want)
		}
	}
}

// TestRunRejectsBadInput pins the exit-1-with-a-named-error paths. A
// case's own -n overrides the default 50.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown query", []string{"-query", "nonsense"}},
		{"unparsable body", []string{"-q", "R(x,y) S(y,z)"}},
		{"unknown alg", []string{"-alg", "nope"}},
		{"inapplicable alg", []string{"-alg", "gym", "-q", "R(x,y), S(z,w)"}}, // panicked with a goroutine dump before the registry dispatch
		{"capacities count", []string{"-p", "4", "-capacities", "1,2"}},
		{"zero capacity", []string{"-p", "2", "-capacities", "1,0"}},
		{"recursive explain", []string{"-recursive", "tc", "-explain"}},
		{"unknown recursive", []string{"-recursive", "nope"}},
		{"unknown transport", []string{"-transport", "carrier-pigeon"}},
		{"data dir missing R.csv", []string{"-data", t.TempDir()}},
		{"zero p", []string{"-p", "0"}}, // this and the sizes below panicked before they were checked
		{"negative p", []string{"-p", "-2", "-recursive", "tc"}},
		{"tc 3 edges on 2 vertices", []string{"-recursive", "tc", "-n", "3"}},
		{"cc 11 edges on 3 vertices", []string{"-recursive", "cc", "-n", "11"}},
		{"tc 13 edges on 4 vertices", []string{"-recursive", "tc", "-n", "13"}},
		{"zipf tc 3 edges on 2 vertices", []string{"-recursive", "tc", "-n", "3", "-skew", "zipf"}},
		{"heavy cc 11 edges on 3 vertices", []string{"-recursive", "cc", "-n", "11", "-skew", "heavy"}},
		{"zipf reach 13 edges on 4 vertices", []string{"-recursive", "reach", "-n", "13", "-skew", "zipf"}},
		{"reach no edges", []string{"-recursive", "reach", "-n", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-n", "50"}, tc.args...), &stdout, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "mpcrun: ") || strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("%v: exit %d, stderr %q; want exit 1 and a one-line named error", tc.args, code, stderr.String())
			}
		})
	}
}

// TestRunRecursiveSizesThatFit pins the other side of the -recursive
// size check: the largest -n each small vertex count holds, under the
// uniform and the power-law generator alike.
func TestRunRecursiveSizesThatFit(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tc 1 edge on 2 vertices", []string{"-recursive", "tc", "-n", "1"}},
		{"tc 2 edges on 2 vertices", []string{"-recursive", "tc", "-n", "2"}},
		{"reach 1 edge", []string{"-recursive", "reach", "-n", "1"}},
		{"cc 12 edges on 4 vertices", []string{"-recursive", "cc", "-n", "12"}},
		{"tc 15 edges on 5 vertices", []string{"-recursive", "tc", "-n", "15"}},
		{"tc zipf 2 edges", []string{"-recursive", "tc", "-n", "2", "-skew", "zipf"}},
		{"cc heavy 15 edges", []string{"-recursive", "cc", "-n", "15", "-skew", "heavy"}},
		{"reach zipf 12 edges", []string{"-recursive", "reach", "-n", "12", "-skew", "zipf"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-p", "2"}, tc.args...), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Errorf("%v: exit %d, stderr %q; want exit 0", tc.args, code, stderr.String())
			}
		})
	}
}

// outputTuples runs the CLI on args and returns the tuple count of its
// "output" report line.
func outputTuples(t *testing.T, args ...string) int {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "output %d tuples", &n); err == nil {
			return n
		}
	}
	t.Fatalf("%v: no output line in\n%s", args, stdout.String())
	return 0
}

// TestInputsEnterAsSets pins the CLI boundary: every CSV and generated
// input is made a set before it runs, so the answer does not depend on
// the algorithm. A three-row R.csv that repeats one row, joined with a
// two-row S.csv, has 4 answers under every algorithm that applies (a
// bag gave 6 under the binary joins and GYM, 4 under HyperCube,
// gym-opt and bigjoin); and the generated -n 600 inputs, which repeat
// rows, answer the same under hashjoin and hypercube.
func TestInputsEnterAsSets(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"R": "x,y\n1,2\n1,2\n3,2\n", "S": "y,z\n2,5\n2,6\n"} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q := "R(x,y), S(y,z)"
	algs := []string{string(core.AlgAuto)}
	for _, d := range core.Registry() {
		if d.Applies(hypergraph.TwoWayJoin()) == nil {
			algs = append(algs, d.Alg)
		}
	}
	for _, alg := range algs {
		if n := outputTuples(t, "-data", dir, "-q", q, "-p", "4", "-alg", alg); n != 4 {
			t.Errorf("-alg %s on the CSV bag: %d tuples, want 4", alg, n)
		}
	}
	gen := []string{"-q", q, "-n", "600", "-p", "8", "-alg"}
	if hj, hc := outputTuples(t, append(gen, "hashjoin")...), outputTuples(t, append(gen, "hypercube")...); hj != hc {
		t.Errorf("generated inputs: %d tuples under hashjoin, %d under hypercube", hj, hc)
	}
}
