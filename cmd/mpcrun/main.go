// Command mpcrun executes one conjunctive query on the MPC simulator
// and reports the result size together with the metered cost (L, r, C).
//
// Usage:
//
//	mpcrun -query triangle -n 20000 -p 64
//	mpcrun -query join2 -n 50000 -p 16 -alg skewjoin -skew zipf
//	mpcrun -query path4 -n 10000 -p 32 -alg gym-opt -verbose
//	mpcrun -q 'R(x,y), S(y,z), T(z,x)' -n 5000 -p 27
//	mpcrun -q 'E(a,b), F(b,c)' -data ./csvdir -p 8
//	mpcrun -q 'spend(c, sum(p)) :- Orders(c, i, p).' -n 5000 -p 8 -verbose
//	mpcrun -query triangle -n 5000 -p 27 -explain
//	mpcrun -query triangle -n 20000 -p 8 -capacities 4,4,1,1,1,1,1,1
//	mpcrun -recursive tc -n 2000 -p 16 -skew zipf
//
// Queries: triangle, join2, rst, path<k>, star<k>, cycle<k>, a bare
// conjunctive body via -q, or Datalog rules (anything containing ':-').
// All three are one input path: a named query is written out as its
// full-head rule, a bare body R(x,y), S(y,z) is shorthand for
// adhoc(x,y,z) :- R(x,y), S(y,z), and the rule goes through
// internal/query — the parser, checks and limits (16 atoms, 20
// variables) mpcserve applies. One relation per body predicate is
// generated (-n tuples, columns c0, c1, ...; a repeated predicate is a
// self-join over one relation) or, with -data, loaded from
// <dir>/<predicate>.csv (header row + int64 rows).
// Algorithms: auto (default) or any name in core.Registry — `mpcrun -h`
// lists them; one forced onto a query it does not apply to is refused
// with the reason -explain gives for rejecting it. skewjoin and skewhc
// route by the heavy hitters of the input, auto's planner's count or,
// forced, their own, in one round (-verbose lists one shuffle round); auto runs
// skewhc on a multiway query exactly when a variable whose HyperCube
// share is > 1 has heavy hitters.
// Skew: none (default), zipf, heavy — honoured for every generated
// relation, whichever way the query was written.
//
// With -recursive tc|reach|cc the run evaluates a recursive workload —
// transitive closure, reachability from a source, or connected
// components — by semi-naive fixpoint over a generated random graph
// with -n edges (heavy-tailed degrees under -skew zipf or heavy). Each
// fixpoint iteration costs one metered round.
//
// Every run prints the same report: the query (or workload), servers,
// transport, algorithm, output size and columns, cost (L, r, C), then —
// each under its flag or condition — fixpoint iterations, capacity
// (-capacities), chaos (-chaos), the theory bounds (any conjunctive
// body) and the per-round table (-verbose). -chaos, -trace, -transport,
// -capacities, -p and -seed compose with every kind of run.
//
// With -chaos seed[:key=rate,...] (e.g. -chaos 7:drop=0.1,crash=0.05)
// the run executes under that deterministic fault schedule: faults are
// injected at every round's delivery boundary and repaired by bounded
// replay. A recovered run reports the exact output and (L, r, C) of the
// fault-free run plus a recovery summary; an unrecovered one exits
// non-zero with the spec that reproduces it.
//
// With -capacities c0,c1,... (len p, entries > 0) the cluster is
// heterogeneous: HyperCube gives each server a box of its share grid
// sized to the server's capacity, a tuple goes once to each server
// whose box meets it, and the report adds the capacity-normalized
// makespan max_i(received_i / c_i) next to (L, r, C). The planner
// still costs candidates at p.
//
// With -explain the cost-based planner (internal/plan) evaluates every
// candidate strategy against statistics collected from the actual
// input, prints the full candidate listing — predicted (L, r, C) per
// candidate and the rejection reason for each loser — then, as `auto
// runs:`, what -alg auto would execute (core.Engine.Plan's rules, which
// need not agree with the listing's min-L choice), and exits without
// executing. -rounds caps the planner's round budget.
//
// With -transport=tcp (e.g. mpcrun -query triangle -n 5000 -p 27
// -transport=tcp -net-workers 4) round delivery runs over the mpcnet
// TCP backend: mpcrun re-executes itself as worker subprocesses, each
// owning a destination shard, and every delivered fragment crosses real
// sockets. Conforming transports are observably identical, so the
// output and the (L, r, C) report are bit-for-bit those of the default
// -transport=local; only the physical delivery path changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mpcquery/internal/chaos"
	"mpcquery/internal/core"
	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/plan"
	"mpcquery/internal/query"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// job is one invocation after input resolution: what to run and on
// which relations. Every -query name, -q body and Datalog rule set
// becomes a compiled rule set; only -recursive workloads have none.
type job struct {
	title    string // leading report line(s)
	compiled *query.Compiled
	rels     map[string]*relation.Relation // inputs, keyed by catalog name
	execute  func(*core.Engine) (*core.Execution, error)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpcrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	queryName := fs.String("query", "triangle", "named query: triangle, join2, rst, path<k>, star<k>, cycle<k>")
	queryBody := fs.String("q", "", "conjunctive query body, e.g. 'R(x,y), S(y,z), T(z,x)', or Datalog rules containing ':-' (overrides -query)")
	dataDir := fs.String("data", "", "directory of <relation>.csv files to load instead of generating data")
	n := fs.Int("n", 10000, "tuples per generated relation")
	p := fs.Int("p", 16, "number of servers")
	alg := fs.String("alg", "auto", "algorithm (auto, "+strings.Join(cost.Names(core.Registry()), ", ")+")")
	skew := fs.String("skew", "none", "generated data skew: none, zipf, heavy")
	seed := fs.Int64("seed", 1, "random seed")
	chaosSpec := fs.String("chaos", "", "fault schedule seed[:drop=r,dup=r,crash=r,straggle=r,delay=n,persist=n,attempts=n]")
	explain := fs.Bool("explain", false, "print the cost-based plan listing (predicted L, r, C per candidate) and exit without executing")
	rounds := fs.Int("rounds", 0, "round budget for -explain planning (0 = unlimited)")
	traceFile := fs.String("trace", "", "write an execution trace to this file (.jsonl → JSON lines, otherwise Chrome trace_event for Perfetto/chrome://tracing)")
	recKind := fs.String("recursive", "", "run a recursive workload instead of a conjunctive query: tc (transitive closure), reach (reachability from vertex 0), cc (connected components); -n sets the edge count")
	transport := fs.String("transport", "local", "round delivery backend: local (in-process) or tcp (worker subprocesses over real sockets)")
	netWorkers := fs.Int("net-workers", 0, "worker processes for -transport=tcp (0 = min(p, 4))")
	netWorker := fs.Bool("net-worker", false, "run as an mpcnet worker process (internal, used by -transport=tcp)")
	listen := fs.String("listen", "127.0.0.1:0", "listen address in -net-worker mode")
	capacities := fs.String("capacities", "", "comma-separated per-server capacities (len p, entries > 0); HyperCube gives each server a grid box sized to its capacity")
	verbose := fs.Bool("verbose", false, "print per-round metrics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mpcrun:", err)
		return 1
	}

	if *p < 1 {
		return fail(fmt.Errorf("-p must be at least 1, got %d", *p))
	}
	caps, err := cost.ParseCapacities(*capacities)
	if err != nil {
		return fail(err)
	}
	if caps != nil && len(caps) != *p {
		return fail(fmt.Errorf("-capacities has %d entries for p=%d", len(caps), *p))
	}
	if *netWorker {
		return runNetWorker(*listen)
	}

	var j *job
	if *recKind != "" {
		j, err = recursiveJob(*recKind, *n, *skew, *seed)
	} else {
		j, err = queryJob(*queryBody, *queryName, core.Algorithm(*alg), *dataDir, *n, *skew, *seed)
	}
	if err != nil {
		return fail(err)
	}
	if *explain {
		if j.compiled == nil || j.compiled.Kind == query.KindRecursive {
			return fail(errors.New("-explain applies to conjunctive queries, not recursive workloads"))
		}
		bound, err := j.compiled.BindRelations(j.rels)
		if err != nil {
			return fail(err)
		}
		pl, perr := plan.For(j.compiled.Query, bound, *p, plan.Options{MaxRounds: *rounds, Capacities: caps, Aggregate: j.compiled.Aggregate})
		if pl == nil {
			return fail(perr)
		}
		fmt.Fprint(stdout, pl.Explain())
		if auto, reason, err := core.NewEngine(*p, *seed).Plan(core.Request{Query: j.compiled.Query, Relations: bound}); err == nil {
			fmt.Fprintf(stdout, "auto runs: %s — %s\n", auto, reason)
		}
		if perr != nil {
			// The listing itself is still useful when every candidate was
			// rejected (e.g. an impossible round budget).
			return fail(perr)
		}
		return 0
	}

	engine := core.NewEngine(*p, *seed)
	engine.Capacities = caps
	transportDesc := "local (in-process)"
	switch *transport {
	case "local":
	case "tcp":
		workers := *netWorkers
		if workers <= 0 {
			workers = min(*p, 4)
		}
		tr, cleanup, terr := spawnTCPTransport(*p, workers)
		if terr != nil {
			return fail(fmt.Errorf("tcp transport: %w", terr))
		}
		defer cleanup()
		engine.Transport = tr
		transportDesc = fmt.Sprintf("tcp (%d worker processes)", workers)
	default:
		return fail(fmt.Errorf("unknown -transport %s", *transport))
	}
	var sched *chaos.Schedule
	if *chaosSpec != "" {
		if sched, err = chaos.ParseSchedule(*chaosSpec); err != nil {
			return fail(err)
		}
		engine.Chaos = sched
	}
	exec, err := j.execute(engine)
	var failure *mpc.RecoveryFailure
	if err != nil && !errors.As(err, &failure) {
		return fail(err)
	}
	// The trace is most valuable exactly when the run failed: a failed
	// run's ledger ends at the round it lost.
	var ledger *mpc.Metrics
	if failure != nil {
		ledger = failure.Metrics
	} else {
		ledger = exec.Metrics
	}
	if terr := writeTrace(stderr, *traceFile, ledger); terr != nil {
		return fail(fmt.Errorf("trace: %w", terr))
	}
	if failure != nil {
		fmt.Fprintln(stderr, "mpcrun:", sched.Report(nil, failure))
		return 1
	}
	report(stdout, j, engine, transportDesc, exec, sched, *verbose)
	return 0
}

// report prints the one run report: the same lines under the same
// flags for named, bare-body, Datalog and -recursive runs. Only the
// theory line depends on the kind — a fixpoint has no conjunctive body
// to profile.
func report(w io.Writer, j *job, e *core.Engine, transportDesc string, exec *core.Execution, sched *chaos.Schedule, verbose bool) {
	in := 0
	for _, r := range j.rels {
		in += r.Len()
	}
	fmt.Fprintln(w, j.title)
	fmt.Fprintf(w, "servers    p = %d, IN = %d tuples\n", e.P, in)
	fmt.Fprintf(w, "transport  %s\n", transportDesc)
	if exec.Reason != "" {
		fmt.Fprintf(w, "algorithm  %s (%s)\n", exec.Algorithm, exec.Reason)
	} else {
		fmt.Fprintf(w, "algorithm  %s\n", exec.Algorithm)
	}
	fmt.Fprintf(w, "output     %d tuples (%s)\n", exec.Output.Len(), strings.Join(exec.Output.Attrs(), ", "))
	fmt.Fprintf(w, "cost       L = %d tuples/server/round, r = %d rounds, C = %d tuples total\n",
		exec.MaxLoad, exec.Rounds, exec.TotalComm)
	if exec.Iterations > 0 {
		fmt.Fprintf(w, "fixpoint   %d semi-naive iterations\n", exec.Iterations)
	}
	if e.Capacities != nil {
		fmt.Fprintf(w, "capacity   normalized makespan = %.1f\n", exec.Metrics.NormalizedMakespan(e.Capacities))
	}
	if sched != nil {
		fmt.Fprintf(w, "chaos      %s\n", sched.Report(exec.Metrics, nil))
	}
	if c := j.compiled; c != nil && c.Kind != query.KindRecursive {
		sizes := map[string]int64{}
		for _, a := range c.Query.Atoms {
			sizes[a.Name] = max(int64(j.rels[c.RelFor[a.Name]].Len()), 1)
		}
		if prof, err := cost.NewProfile(c.Query, sizes, e.P); err == nil {
			fmt.Fprintf(w, "theory     %s\n", indent(prof.String()))
		}
	}
	if verbose {
		fmt.Fprint(w, exec.Metrics.String())
	}
}

// indent aligns the continuation lines of a multi-line report value
// under its label.
func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n           ")
}

// recursiveJob builds a -recursive tc|reach|cc run: a semi-naive
// fixpoint over a generated random graph with n distinct edges
// (heavy-tailed degrees under -skew zipf/heavy), reachability starting
// from the first edge's source.
func recursiveJob(kind string, n int, skew string, seed int64) (*job, error) {
	vertices := max(n/3, 2)
	if n > vertices*(vertices-1) {
		return nil, fmt.Errorf("-n %d edges do not fit a simple graph on %d vertices", n, vertices)
	}
	gen := workload.RandomGraph
	if skew == "zipf" || skew == "heavy" {
		gen = workload.PowerLawGraph
	}
	edges := gen("E", "src", "dst", vertices, n, seed)
	req := core.RecursiveRequest{Kind: core.RecursiveKind(kind), Edges: edges}
	if req.Kind == core.RecReachable {
		if edges.Len() == 0 {
			return nil, errors.New("-recursive reach needs -n ≥ 1 for its source vertex")
		}
		req.Sources = []relation.Value{edges.Row(0)[0]}
	}
	return &job{
		title:   fmt.Sprintf("workload   recursive %s (semi-naive fixpoint over %d vertices)", kind, vertices),
		rels:    map[string]*relation.Relation{"E": edges},
		execute: func(e *core.Engine) (*core.Execution, error) { return e.ExecuteRecursive(req) },
	}, nil
}

// queryJob resolves the -q / -query value to a rule set, builds one
// input relation per EDB predicate (from <dataDir>/<name>.csv, or
// generated under the skew profile with seed+i for the i-th predicate
// in body order) made a set, and compiles against them — the same
// parser, checks and compiler mpcserve uses.
func queryJob(body, name string, alg core.Algorithm, dataDir string, n int, skew string, seed int64) (*job, error) {
	prog, err := parseInput(body, name)
	if err != nil {
		return nil, err
	}
	edb := prog.EDB()
	rels := map[string]*relation.Relation{}
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			arity, ok := edb[a.Name]
			if !ok || rels[a.Name] != nil {
				continue
			}
			var rel *relation.Relation
			if dataDir == "" {
				rel = generate(a.Name, arity, n, skew, seed+int64(len(rels)))
			} else if rel, err = loadCSV(dataDir, a.Name, arity); err != nil {
				return nil, err
			}
			rels[a.Name] = rel.Distinct()
		}
	}
	c, err := query.Compile(prog, query.CatalogOf(rels))
	if err != nil {
		return nil, err
	}
	return &job{
		title:    fmt.Sprintf("query      %s\nkind       %s", indent(prog.String()), c.Kind),
		compiled: c,
		rels:     rels,
		execute:  func(e *core.Engine) (*core.Execution, error) { return c.Run(e, rels, alg) },
	}, nil
}

// parseInput turns the -q value (or, without one, the -query value)
// into a rule set through the one parser, internal/query. Text
// containing ":-" is Datalog as is; any other -q value is a bare body;
// a -query name is one of the built-in families, written out as its
// full-head rule.
func parseInput(body, name string) (*query.Program, error) {
	switch {
	case strings.Contains(body, ":-"):
		return query.Parse(body)
	case body != "":
		return parseBody(body)
	case strings.Contains(name, ":-"):
		return query.Parse(name)
	}
	q, err := namedQuery(name)
	if err != nil {
		return nil, err
	}
	atoms := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = a.String()
	}
	return query.Parse(fmt.Sprintf("%s(%s) :- %s.", q.Name, strings.Join(q.Vars(), ","), strings.Join(atoms, ", ")))
}

// parseBody parses a bare conjunctive body such as "R(x,y), S(y,z)" as
// shorthand for the full-head rule adhoc(x,y,z) :- R(x,y), S(y,z): it
// is parsed behind a placeholder head, which is then replaced by every
// body variable in first-occurrence order. Positions are shifted back
// so errors point into the text the user typed.
func parseBody(body string) (*query.Program, error) {
	const head = "adhoc(adhoc) :- "
	unshift := func(p *query.Pos) {
		if p.Line == 1 {
			p.Col -= len(head)
		}
	}
	prog, err := query.Parse(head + body)
	if err != nil {
		var qe *query.Error
		if errors.As(err, &qe) {
			unshift(&qe.Pos)
		}
		return nil, err
	}
	r := prog.Rules[0]
	r.Head.Terms = nil
	seen := map[string]bool{}
	for i := range r.Body {
		a := &r.Body[i]
		unshift(&a.Pos)
		for k := range a.Vars {
			v := &a.Vars[k]
			unshift(&v.Pos)
			if !seen[v.Name] {
				seen[v.Name] = true
				r.Head.Terms = append(r.Head.Terms, query.HeadTerm{Var: v.Name, Pos: r.Head.Pos})
			}
		}
	}
	return prog, nil
}

// namedQuery resolves a -query name, supporting parameterized families
// like path7 or star3.
func namedQuery(name string) (hypergraph.Query, error) {
	switch name {
	case "triangle":
		return hypergraph.Triangle(), nil
	case "join2":
		return hypergraph.TwoWayJoin(), nil
	case "rst":
		return hypergraph.RST(), nil
	case "product":
		return hypergraph.CartesianProduct(), nil
	}
	for _, fam := range []struct {
		prefix string
		make   func(int) hypergraph.Query
	}{
		{"path", hypergraph.Path},
		{"star", hypergraph.Star},
		{"cycle", hypergraph.Cycle},
	} {
		if strings.HasPrefix(name, fam.prefix) {
			k, err := strconv.Atoi(name[len(fam.prefix):])
			if err != nil || k < 1 {
				return hypergraph.Query{}, fmt.Errorf("bad query %q", name)
			}
			return fam.make(k), nil
		}
	}
	return hypergraph.Query{}, fmt.Errorf("unknown query %q", name)
}

// generate builds one n-tuple input relation with columns c0, c1, ...
// under the requested skew profile: uniform or Zipf over n/2 values,
// or ("heavy") one planted heavy hitter carrying a fifth of the tuples.
func generate(name string, arity, n int, skew string, seed int64) *relation.Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	dom := max(n/2, 2)
	switch skew {
	case "zipf":
		return workload.Zipf(name, attrs, n, dom, 1.4, seed)
	case "heavy":
		heavyCount := n / 5
		kv := workload.PlantHeavy(name, "k", "v", n-heavyCount, int64(n), []relation.Value{0}, []int{heavyCount})
		// Adapt the 2-column PlantHeavy output to the relation's arity.
		out := relation.New(name, attrs...)
		row := make([]relation.Value, arity)
		for i := 0; i < kv.Len(); i++ {
			src := kv.Row(i)
			for c := range row {
				row[c] = src[c%2]
			}
			out.AppendRow(row)
		}
		return out
	}
	return workload.Uniform(name, attrs, n, dom, seed)
}

// loadCSV loads <dir>/<name>.csv (header row + int64 rows).
func loadCSV(dir, name string, arity int) (*relation.Relation, error) {
	f, err := os.Open(filepath.Join(dir, name+".csv"))
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	defer f.Close()
	rel, err := relation.ReadCSV(name, f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	if rel.Arity() != arity {
		return nil, fmt.Errorf("load %s: CSV has %d columns, query uses %d", name, rel.Arity(), arity)
	}
	return rel, nil
}

// writeTrace draws the ledger's trace into path — JSON lines when the
// file ends in .jsonl, Chrome trace_event (Perfetto-loadable) otherwise.
// No-op when tracing was not requested.
func writeTrace(stderr io.Writer, path string, ledger *mpc.Metrics) error {
	if path == "" {
		return nil
	}
	events := ledger.Events()
	if err := trace.WriteFile(path, events); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "trace: %d events written to %s\n", len(events), path)
	return nil
}
