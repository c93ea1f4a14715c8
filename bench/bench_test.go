package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// testScale shrinks every workload's inputs so that the whole file runs in a
// few seconds; verification stays on.
const testScale = 0.1

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}, {0, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("median modified its argument")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestPooledNormalisation(t *testing.T) {
	blocks := []blockStats{
		{ops: 2, wall: 30 * time.Millisecond, kWall: 0.5, samples: []opSample{{0, 10}, {1, 20}}},
		{ops: 2, wall: 20 * time.Millisecond, kWall: 2, samples: []opSample{{0, 5}, {1, 15}}},
	}
	if got, want := poolNormalised(blocks, -1), []float64{5, 10, 10, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("all kinds pooled = %v, want %v", got, want)
	}
	if got, want := poolNormalised(blocks, 1), []float64{10, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("kind 1 pooled = %v, want %v", got, want)
	}
	raw, ref := throughputs(blocks)
	// 2 ops in 30 ms is 66.7/s; on a machine twice as slow as the reference
	// (factor 0.5) the reference machine would have done 133.3/s.
	if math.Abs(raw[0]-66.6667) > 1e-3 || math.Abs(ref[0]-133.3333) > 1e-3 || math.Abs(ref[1]-50) > 1e-9 {
		t.Errorf("throughputs raw %v ref %v", raw, ref)
	}
}

func TestFactorsAt(t *testing.T) {
	cals := func(ws ...float64) []calSample {
		var out []calSample
		for _, w := range ws {
			out = append(out, calSample{wallMS: w, cpuMS: 2 * w})
		}
		return out
	}
	// One outlier among four is dropped by the median.
	wall, cpu, mixed := factorsAt(cals(100, 100, 150, 100, 100), 1)
	if wall != 1 || cpu != 1 || mixed {
		t.Errorf("outlier window: wall %v cpu %v mixed %v, want 1 1 false", wall, cpu, mixed)
	}
	// A machine at half speed: twice the kernel time, factor one half.
	if wall, _, _ := factorsAt(cals(200, 200, 200), 0); wall != 0.5 {
		t.Errorf("half-speed wall factor = %v, want 0.5", wall)
	}
	// Two calibrations at one speed and two at another: no one factor fits.
	if _, _, mixed := factorsAt(cals(100, 100, 130, 130), 1); !mixed {
		t.Error("a window straddling a 30 % speed change was not flagged as mixed")
	}
	// The window is clipped at the ends of the run.
	if wall, _, _ := factorsAt(cals(50, 100, 100, 100), 0); wall != 1 {
		t.Errorf("clipped window wall factor = %v, want 1", wall)
	}
}

func TestPassDropsMixedBlocksButNeverMostOfThem(t *testing.T) {
	p := pass{blocks: []blockStats{{}, {mixed: true}, {}, {}}}
	if kept, dropped := p.timed(); len(kept) != 3 || dropped != 1 {
		t.Errorf("kept %d dropped %d, want 3 and 1", len(kept), dropped)
	}
	p = pass{blocks: []blockStats{{mixed: true}, {mixed: true}, {}}}
	if kept, dropped := p.timed(); len(kept) != 3 || dropped != 0 {
		t.Errorf("kept %d dropped %d, want all 3 kept", len(kept), dropped)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100] ── a [10,40] ── a1 [15,25]
	//              └─ b [50,90]
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 1, Name: "a1", StartNS: 15, EndNS: 25},
		{ID: 3, Parent: 0, Name: "b", StartNS: 50, EndNS: 90},
	}
	want := []time.Duration{30, 20, 10, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNestsAndNilTracerIsInert(t *testing.T) {
	var none *tracer
	none.nextRequest()
	none.end(none.begin("x"))

	tr := newTracer()
	tr.nextRequest()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.nextRequest()
	tr.end(tr.begin("next"))
	if len(tr.spans) != 3 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].Request != 0 || tr.spans[2].Request != 1 {
		t.Errorf("request ids %d and %d, want 0 and 1", tr.spans[0].Request, tr.spans[2].Request)
	}
	if tr.spans[0].EndNS < tr.spans[1].EndNS || tr.spans[1].StartNS < tr.spans[0].StartNS {
		t.Error("inner span is not inside outer span")
	}
}

func TestLayerSharesAddUp(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanOpPrefix + "k", StartNS: 0, EndNS: 100e6},
		{ID: 1, Parent: -1, Name: spanReplayPrefix + "k", StartNS: 100e6, EndNS: 400e6},
		{ID: 2, Parent: 1, Name: spanPlan, StartNS: 100e6, EndNS: 110e6},
		{ID: 3, Parent: 1, Name: spanPlanOffPath, StartNS: 110e6, EndNS: 130e6},
		{ID: 4, Parent: 1, Name: spanHashJoin, StartNS: 200e6, EndNS: 260e6},
		{ID: 5, Parent: 1, Name: spanGather, StartNS: 260e6, EndNS: 265e6},
	}
	got := layerShares(spans)
	for name, want := range map[string]float64{
		"trace.share.plan": 0.10, "trace.share.algorithm": 0.60, "trace.share.gather": 0.05,
		"trace.share.query": 0, "trace.share.other": 0.25,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestChecksumIgnoresOrderAndExpectationsCatchWrongRows(t *testing.T) {
	a := relation.FromRows("a", []string{"x", "y"}, [][]relation.Value{{1, 2}, {3, 4}, {5, 6}})
	b := relation.FromRows("b", []string{"x", "y"}, [][]relation.Value{{5, 6}, {1, 2}, {3, 4}})
	c := relation.FromRows("c", []string{"x", "y"}, [][]relation.Value{{5, 6}, {1, 2}, {4, 3}})
	if checksum(a) != checksum(b) {
		t.Error("checksum depends on row order")
	}
	if checksum(a) == checksum(c) {
		t.Error("checksum missed a swapped tuple")
	}
	e := expect(a, cost{l: 7, r: 1, c: 9}, true)
	if !e.checkFull(b, cost{7, 1, 9}) || e.checkFull(c, cost{7, 1, 9}) || e.checkFull(b, cost{8, 1, 9}) {
		t.Error("checkFull accepts or rejects the wrong outputs")
	}
	prefix := [][]relation.Value{{3, 4}, {1, 2}}
	if !e.checkPrefix(3, prefix, 2, cost{7, 1, 9}) {
		t.Error("checkPrefix rejected two genuine rows")
	}
	if e.checkPrefix(3, [][]relation.Value{{3, 4}, {9, 9}}, 2, cost{7, 1, 9}) {
		t.Error("checkPrefix accepted a row the oracle does not have")
	}
	if e.checkPrefix(4, prefix, 2, cost{7, 1, 9}) {
		t.Error("checkPrefix accepted a wrong total row count")
	}
	if e.checkPrefix(3, prefix[:1], 2, cost{7, 1, 9}) {
		t.Error("checkPrefix accepted fewer rows than the limit allows")
	}
}

func TestClosureOracleAgreesWithTestkit(t *testing.T) {
	edges := layeredGraph("E", [2]string{"a", "b"}, 6, 5, 2, 42)
	got, want := closureOracle("tc", edges), testkit.OracleFixpoint("tc", edges)
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Errorf("closureOracle has %d rows, testkit.OracleFixpoint %d", got.Len(), want.Len())
	}
}

func TestLayeredGraphDepthDoesNotDependOnSeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		edges := layeredGraph("E", [2]string{"a", "b"}, 7, 6, 2, seed)
		if want := 6 * 6 * 2; edges.Len() != want {
			t.Fatalf("seed %d: %d edges, want %d", seed, edges.Len(), want)
		}
		// The longest path has layers-1 edges, so some vertex reaches another
		// in exactly that many hops and none in more: the closure of a first-
		// layer vertex is non-empty in the last layer.
		if closureOracle("tc", edges).Len() <= edges.Len() {
			t.Errorf("seed %d: closure adds nothing to the edges", seed)
		}
	}
}

func TestSameSeedSameOpsDifferentSeedDifferentInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, testScale)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 8, testScale)
		if err != nil {
			t.Fatal(err)
		}
		for block := -1; block < 3; block++ {
			if !reflect.DeepEqual(a.sequence(block), b.sequence(block)) {
				t.Errorf("%s: block %d differs between two builds of seed 7", name, block)
			}
		}
		if reflect.DeepEqual(a.sequence(0), a.sequence(1)) {
			t.Errorf("%s: blocks 0 and 1 run the same op order", name)
		}
		if reflect.DeepEqual(a.sequence(0), c.sequence(0)) {
			t.Errorf("%s: seeds 7 and 8 run the same op order", name)
		}
		if checksum(a.env.r) != checksum(b.env.r) || checksum(a.env.e) != checksum(b.env.e) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if checksum(a.env.r) == checksum(c.env.r) || checksum(a.env.e) == checksum(c.env.e) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		// Every block does the same work: the same multiset of op ids.
		count := func(seq []int) map[int]int {
			m := map[int]int{}
			for _, id := range seq {
				m[id]++
			}
			return m
		}
		if name != "serve_churn" && !reflect.DeepEqual(count(a.sequence(0)), count(a.sequence(5))) {
			t.Errorf("%s: blocks 0 and 5 hold different op mixes", name)
		}
	}
}

// oneBlock starts the workload and runs one timed block, untraced.
func oneBlock(t *testing.T, w *workload) blockStats {
	t.Helper()
	sys, err := w.start()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := warmUp(sys, w); err != nil {
		t.Fatal(err)
	}
	seq := w.sequence(0)
	return runBlock(sys, w, seq, nil, make([]opSample, 0, len(seq)))
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"serve_churn", "batch_multiround"} {
		var runs [2]blockStats
		for i := range runs {
			w, err := buildWorkload(name, 3, testScale)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = oneBlock(t, w)
			if runs[i].failed != 0 {
				t.Fatalf("%s: %d ops failed verification", name, runs[i].failed)
			}
		}
		if runs[0].cost != runs[1].cost || runs[0].ops != runs[1].ops {
			t.Errorf("%s: model cost %+v over %d ops, then %+v over %d", name, runs[0].cost, runs[0].ops, runs[1].cost, runs[1].ops)
		}
		a, b := float64(runs[0].mallocs), float64(runs[1].mallocs)
		if relDiff(a, b) > 0.01 {
			t.Errorf("%s: %v allocations, then %v: more than 1 %% apart", name, a, b)
		}
	}
}

func TestTCPReproducesLocalModelCost(t *testing.T) {
	local, err := buildWorkload("batch_multiround", 5, testScale)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := buildWorkload("tcp_shuffle", 5, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// gym_path3 is op 0 of batch_multiround and op 1 of tcp_shuffle, on the
	// same inputs; the expectation holds the local engine's cost and the TCP
	// system is verified against it on every op.
	ls, err := local.start()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	ts, err := tcp.start()
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	lo, to := ls.exec(0, nil), ts.exec(1, nil)
	if !lo.ok || !to.ok || lo.cost != to.cost || lo.cost.c == 0 {
		t.Errorf("gym_path3 local %+v ok=%v, over TCP %+v ok=%v", lo.cost, lo.ok, to.cost, to.ok)
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b := oneBlock(t, w)
		if b.ops == 0 || b.failed != 0 {
			t.Errorf("%s: %d ops, %d failed", name, b.ops, b.failed)
		}
		if b.cost.c == 0 || b.mallocs == 0 || b.wall <= 0 || b.cpu <= 0 {
			t.Errorf("%s: nothing measured: %+v", name, b)
		}
		// The traced pass: every op replayed, spans well-formed.
		sys, err := w.start()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for _, id := range w.sequence(0)[:len(w.cycle)+1] {
			if obs := sys.exec(id, tr); !obs.ok {
				t.Errorf("%s: traced op %s failed", name, w.kinds[id])
			}
		}
		sys.close()
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", name, len(tr.stack))
		}
		shares := layerShares(tr.spans)
		if shares["trace.share.algorithm"] <= 0 {
			t.Errorf("%s: the replay attributed nothing to the algorithm layer: %v", name, shares)
		}
		for i, self := range selfTimes(tr.spans) {
			if self < 0 {
				t.Errorf("%s: span %s has negative self time %v", name, tr.spans[i].Name, self)
			}
		}
	}
}

func TestWrongOutputIsAFailedOp(t *testing.T) {
	w, err := buildWorkload("serve_hot", 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.start()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	s := sys.(*serveSys)
	// Swap in a different S behind the harness's back: the service now
	// answers correctly for data the expectations were not computed on.
	s.svc.Register(distinctUniform("S", [2]string{"y", "z"}, s.d.sVariants[0].Len(), 50, 50, 999))
	if obs := sys.exec(0, nil); obs.ok {
		t.Error("an op whose output disagrees with the oracle was counted as correct")
	}
}

func TestProbesMeasureEveryLayer(t *testing.T) {
	w, err := buildWorkload("serve_hot", 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	values, cals, err := runProbes(w.env, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cals) != 2 {
		t.Errorf("%d calibrations around the probes, want 2", len(cals))
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
	for _, name := range []string{"query.parse_us", "mpc.round_empty_us", "mpcnet.round_shuffle_ns_per_tuple",
		"relation.hashjoin_ns_per_row", "hypercube.run_ms", "recursive.tc_us_per_round", "plan.choose_us", "core.plan_us"} {
		if values[name] <= 0 {
			t.Errorf("%s = %v, want a positive time", name, values[name])
		}
	}
}

func TestResultDemandsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}, 1, 0); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("an undeclared metric went unnoticed")
	}
	res, err := newResult(defs, map[string]float64{"a": 1, "b": 2}, 10, 1)
	if err != nil || res.Correct || res.Metrics["b"].Unit != "count" {
		t.Errorf("result %+v, err %v", res, err)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the driver
// reads, and the registry in metrics.go, which the program reports from, the
// same list.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark: ", err)
	}
	var spec struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", spec.EndToEnd, endToEndDefs)
	}
	if len(spec.PerLayer) != len(perLayerDefs) || len(perLayerDefs) > 128 {
		t.Fatalf("per_layer has %d metrics, program %d (limit 128)", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if spec.PerLayer[i].Name != d.Name || spec.PerLayer[i].Unit != d.Unit || spec.PerLayer[i].Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, spec.PerLayer[i], d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}
