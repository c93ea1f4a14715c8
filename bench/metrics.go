package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json. bound is meaningful for
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndDefs are the end-to-end metrics, the same on every workload.
// Timings are in reference units: what the reference machine of calibrate.go
// would have measured. See README.md for each definition and for why the
// model metrics carry a small bound where the issue asked for 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ref_ops_s", "1/ref-s", "higher", 0.25},
	{"latency_p50_ref_ms", "ref-ms", "lower", 0.25},
	{"latency_p95_ref_ms", "ref-ms", "lower", 0.25},
	{"cpu_ref_ms_per_op", "ref-ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"model_load_l_per_op", "tuples", "lower", 0.15},
	{"model_rounds_r_per_op", "rounds", "lower", 0.01},
	{"model_comm_c_per_op", "tuples", "lower", 0.05},
}

// opKinds are all op kinds of all workloads; each reports op.<kind>.p50_ref_ms
// and op.<kind>.share, 0 on the workloads that do not run it.
var opKinds = []string{
	"join_rs", "triangle", "agg_sum", "path3", "join_st", "tc", "register",
	"hc_triangle", "zipf_join", "hashjoin_sparse", "gym_path3", "tc_batch", "agg_join",
}

// perLayerDefs are the per-layer metrics, in reporting order.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{Name: "query.parse_us", Unit: "ref-us", Better: "lower"},
		{Name: "query.compile_us", Unit: "ref-us", Better: "lower"},
		{Name: "query.shapekey_us", Unit: "ref-us", Better: "lower"},
		{Name: "service.do_overhead_us", Unit: "ref-us", Better: "lower"},
		{Name: "service.register_us", Unit: "ref-us", Better: "lower"},
		{Name: "service.serialize_us", Unit: "ref-us", Better: "lower"},
		{Name: "service.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "service.shed", Unit: "count", Better: "lower"},
		{Name: "service.trace_on_ratio", Unit: "ratio", Better: "lower"},
		{Name: "service.concurrent2_speedup", Unit: "ratio", Better: "higher"},
		{Name: "core.plan_us", Unit: "ref-us", Better: "lower"},
		{Name: "core.execute_forced_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "core.project_us", Unit: "ref-us", Better: "lower"},
		{Name: "plan.collectstats_us", Unit: "ref-us", Better: "lower"},
		{Name: "plan.choose_us", Unit: "ref-us", Better: "lower"},
		{Name: "mpc.newcluster_us", Unit: "ref-us", Better: "lower"},
		{Name: "mpc.scatter_ns_per_tuple", Unit: "ref-ns", Better: "lower"},
		{Name: "mpc.round_empty_us", Unit: "ref-us", Better: "lower"},
		{Name: "mpc.round_shuffle_ns_per_tuple", Unit: "ref-ns", Better: "lower"},
		{Name: "mpc.gather_ns_per_tuple", Unit: "ref-ns", Better: "lower"},
		{Name: "mpc.round_traced_ratio", Unit: "ratio", Better: "lower"},
		{Name: "mpcnet.loopback_dial_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "mpcnet.round_empty_us", Unit: "ref-us", Better: "lower"},
		{Name: "mpcnet.round_shuffle_ns_per_tuple", Unit: "ref-ns", Better: "lower"},
		{Name: "mpcnet.tcp_over_local_ratio", Unit: "ratio", Better: "lower"},
		{Name: "relation.genericjoin_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "relation.hashjoin_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "relation.semijoin_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "relation.groupby_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "relation.dedup_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "relation.project_ns_per_row", Unit: "ref-ns", Better: "lower"},
		{Name: "hypercube.newplan_us", Unit: "ref-us", Better: "lower"},
		{Name: "hypercube.run_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "join2.hashjoin_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "join2.skewjoin_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "yannakakis.gymopt_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "recursive.tc_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "recursive.tc_us_per_round", Unit: "ref-us", Better: "lower"},
		{Name: "aggregate.run_ms", Unit: "ref-ms", Better: "lower"},
		{Name: "trace.share.query", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.plan", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.algorithm", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.gather", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.project", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.serialize", Unit: "ratio", Better: "lower"},
		{Name: "trace.share.other", Unit: "ratio", Better: "lower"},
		{Name: "gc.cycles_per_op", Unit: "count", Better: "lower"},
		{Name: "gc.pause_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "gc.cpu_fraction", Unit: "ratio", Better: "lower"},
		{Name: "bench.cal_ms_median", Unit: "ms", Better: "lower"},
		{Name: "bench.cal_ms_min", Unit: "ms", Better: "lower"},
		{Name: "bench.cal_ms_max", Unit: "ms", Better: "lower"},
		{Name: "bench.blocks_discarded", Unit: "count", Better: "lower"},
		{Name: "bench.datagen_s", Unit: "s", Better: "lower"},
		{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "raw.throughput_ops_s", Unit: "1/s", Better: "higher"},
		{Name: "raw.latency_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "raw.latency_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	}
	for _, k := range opKinds {
		defs = append(defs,
			metricDef{Name: "op." + k + ".p50_ref_ms", Unit: "ref-ms", Better: "lower"},
			metricDef{Name: "op." + k + ".share", Unit: "ratio", Better: "lower"})
	}
	return defs
}()

// result is one run's outcome in the form the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult pairs measured values with their declared units. Every declared
// metric must have been measured and nothing else may be reported.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return res, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("bench: undeclared metrics measured: %v", extra)
	}
	return res, nil
}

// printTable writes the metrics by name with their units, in declared order.
func printTable(w io.Writer, title string, defs []metricDef, res result, notes map[string]string) {
	fmt.Fprintf(w, "%s  (ops attempted %d, failed %d)\n", title, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s %s\n", d.Name, m.Value, m.Unit, notes[d.Name])
	}
}

func (r result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic("bench: result does not marshal: " + err.Error())
	}
	return string(b)
}
