package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// poolNormalised scales every op latency of every block to the reference
// machine by its own block's factor and pools them. kind < 0 pools all kinds.
func poolNormalised(blocks []blockStats, kind int32) []float64 {
	var pool []float64
	for _, b := range blocks {
		for _, s := range b.samples {
			if kind < 0 || s.kind == kind {
				pool = append(pool, s.ms*b.kWall)
			}
		}
	}
	return pool
}

func poolRaw(blocks []blockStats) []float64 {
	var pool []float64
	for _, b := range blocks {
		for _, s := range b.samples {
			pool = append(pool, s.ms)
		}
	}
	return pool
}

// totals sums what is counted, not timed, over blocks.
type totals struct {
	ops, failed         int
	mallocs, allocBytes uint64
	cost                cost
}

func totalsOf(blocks []blockStats) totals {
	var t totals
	for _, b := range blocks {
		t.ops += b.ops
		t.failed += b.failed
		t.mallocs += b.mallocs
		t.allocBytes += b.allocBytes
		t.cost.add(b.cost)
	}
	return t
}

// throughputs returns each block's ops per second, raw and scaled to the
// reference machine.
func throughputs(blocks []blockStats) (raw, ref []float64) {
	for _, b := range blocks {
		perS := float64(b.ops) / b.wall.Seconds()
		raw = append(raw, perS)
		ref = append(ref, perS/b.kWall)
	}
	return raw, ref
}

// blocksFor converts --seconds into a block count: blocks have a fixed op
// count, so a shorter run drops blocks and never shortens one.
func blocksFor(seconds float64) int {
	n := int(math.Round(seconds / blockTargetS))
	if n < 2 {
		n = 2
	}
	return n
}

// startWarm opens every run: the cold-start samples, then the one start that
// is kept, warmed up.
func startWarm(w *workload, samples int) (setupResult, system, error) {
	setup, err := measureSetup(w, samples)
	if err != nil {
		return setup, nil, err
	}
	sys, err := w.start()
	if err != nil {
		return setup, nil, err
	}
	if err := warmUp(sys, w); err != nil {
		sys.close()
		return setup, nil, err
	}
	return setup, sys, nil
}

// runEndToEnd is the untraced pass: cold starts, warm-up, timed blocks.
func runEndToEnd(w *workload, seconds float64) (result, map[string]string, error) {
	setup, sys, err := startWarm(w, setupSamples)
	if err != nil {
		return result{}, nil, err
	}
	defer sys.close()
	p := timedPass(sys, w, 0, blocksFor(seconds), 1, nil)
	heap := liveHeapMB(sys, w)

	t := totalsOf(p.blocks)
	timed, dropped := p.timed()
	_, ref := throughputs(timed)
	var cpu []float64
	for _, b := range timed {
		cpu = append(cpu, ms(b.cpu)*b.kCPU/float64(b.ops))
	}
	lat := poolNormalised(timed, -1)
	ops := float64(t.ops)
	values := map[string]float64{
		"setup_s":               setup.refS,
		"throughput_ref_ops_s":  median(ref),
		"latency_p50_ref_ms":    percentile(lat, 0.50),
		"latency_p95_ref_ms":    percentile(lat, 0.95),
		"cpu_ref_ms_per_op":     median(cpu),
		"allocs_per_op":         float64(t.mallocs) / ops,
		"alloc_mb_per_op":       float64(t.allocBytes) / ops / 1e6,
		"live_heap_mb":          heap,
		"model_load_l_per_op":   float64(t.cost.l) / ops,
		"model_rounds_r_per_op": float64(t.cost.r) / ops,
		"model_comm_c_per_op":   float64(t.cost.c) / ops,
	}
	blocks := fmt.Sprintf("median of %d blocks, %d dropped as mixed-speed", len(timed), dropped)
	notes := map[string]string{
		"setup_s":              fmt.Sprintf("median of %d samples, %d cold starts", setup.samples, setup.starts),
		"throughput_ref_ops_s": blocks,
		"latency_p50_ref_ms":   fmt.Sprintf("n=%d ops", len(lat)),
		"latency_p95_ref_ms":   fmt.Sprintf("n=%d ops, %d beyond", len(lat), len(lat)-int(math.Ceil(0.95*float64(len(lat))))),
		"cpu_ref_ms_per_op":    blocks,
		"allocs_per_op":        fmt.Sprintf("over %d ops", t.ops),
		"alloc_mb_per_op":      fmt.Sprintf("over %d ops", t.ops),
	}
	res, err := newResult(endToEndDefs, values, t.ops, t.failed)
	return res, notes, err
}

// Fractions of a full block the trace run's two passes use. The traced pass
// replays every op several times over, so its blocks are short.
const (
	traceRunBlocks      = 3
	traceRunFraction    = 2.0 / 3
	tracedBlockFraction = 1.0 / 4
)

// runPerLayer is the traced run: a short untraced pass for the raw numbers
// and the per-kind split, the same blocks again with spans on, then the
// per-layer probes on the workload's own data.
func runPerLayer(w *workload, outDir string) (result, error) {
	phase := phaseClock()
	setup, sys, err := startWarm(w, 1)
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	phase("setup and warm-up")
	plain := timedPass(sys, w, 0, traceRunBlocks, traceRunFraction, nil)
	phase("untraced pass")
	tr := newTracer()
	traced := timedPass(sys, w, 0, traceRunBlocks, tracedBlockFraction, tr)
	phase("traced pass")
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, tr.spans); err != nil {
		return result{}, err
	}

	values := map[string]float64{}
	pt, tt := totalsOf(plain.blocks), totalsOf(traced.blocks)
	plainTimed, dropped := plain.timed()
	raw, ref := throughputs(plainTimed)
	_, tracedRef := throughputs(traced.blocks)
	rawLat := poolRaw(plainTimed)
	values["raw.throughput_ops_s"] = median(raw)
	values["raw.latency_p50_ms"] = percentile(rawLat, 0.50)
	values["raw.latency_p95_ms"] = percentile(rawLat, 0.95)
	values["raw.setup_s"] = setup.rawS
	values["bench.trace_overhead_ratio"] = ratio(median(ref), median(tracedRef))
	values["bench.blocks_discarded"] = float64(dropped)
	values["bench.datagen_s"] = w.datagenS

	var gcCycles, gcPauseMS, gcCPU, totalCPU, wallMS float64
	for _, b := range plainTimed {
		gcCycles += float64(b.gcCycles)
		gcPauseMS += ms(b.gcPause)
		gcCPU += b.gcCPUS
		totalCPU += b.goCPUS
		wallMS += ms(b.wall) * b.kWall
	}
	values["gc.cycles_per_op"] = gcCycles / float64(pt.ops)
	values["gc.pause_ms_per_op"] = gcPauseMS / float64(pt.ops)
	values["gc.cpu_fraction"] = ratio(gcCPU, totalCPU)

	for _, kind := range opKinds {
		values["op."+kind+".p50_ref_ms"], values["op."+kind+".share"] = 0, 0
	}
	for i, kind := range w.kinds {
		if w.kindOf[i] != int32(i) {
			continue
		}
		lat := poolNormalised(plainTimed, int32(i))
		values["op."+kind+".p50_ref_ms"] = median(lat)
		values["op."+kind+".share"] = sum(lat) / wallMS
	}
	for name, v := range layerShares(tr.spans) {
		values[name] = v
	}

	hit, shed, ok := snapshotOf(sys)
	probed, cals, err := runProbes(w.env, !ok)
	if err != nil {
		return result{}, err
	}
	phase("probes")
	for name, v := range probed {
		values[name] = v
	}
	if ok {
		values["service.plan_cache_hit_rate"], values["service.shed"] = hit, shed
	}

	var calMS []float64
	for _, c := range append(append(append(setup.cals, plain.cals...), traced.cals...), cals...) {
		calMS = append(calMS, c.wallMS)
	}
	values["bench.cal_ms_median"] = median(calMS)
	values["bench.cal_ms_min"] = percentile(calMS, 0)
	values["bench.cal_ms_max"] = percentile(calMS, 1)

	return newResult(perLayerDefs, values, pt.ops+tt.ops, pt.failed+tt.failed)
}

// phaseClock returns a function that, under -v, prints how long the phase
// just ended took.
func phaseClock() func(name string) {
	last := time.Now()
	return func(name string) {
		if verbose {
			fmt.Fprintf(os.Stderr, "  phase %s: %.2fs\n", name, time.Since(last).Seconds())
		}
		last = time.Now()
	}
}

// layerShares attributes the traced front-door time to layers: for each part,
// the replay spans' total over the front-door spans' total. What no replay
// span covers — admission, snapshot and fingerprint, cluster construction,
// response building, the engine's own glue — is "other".
func layerShares(spans []span) map[string]float64 {
	part := map[string]string{
		spanParse: "query", spanCompile: "query", spanShapeKey: "query",
		spanPlan:      "plan",
		spanHyperCube: "algorithm", spanSkewHC: "algorithm", spanHashJoin: "algorithm",
		spanBroadcast: "algorithm", spanSkewJoin: "algorithm", spanGYMOpt: "algorithm",
		spanTC: "algorithm", spanAggregate: "algorithm", spanScatter: "algorithm",
		spanGather:  "gather",
		spanProject: "project",
		spanMarshal: "serialize",
	}
	sums := map[string]float64{}
	front := 0.0
	for _, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, spanOpPrefix) {
			front += ms(s.dur())
		}
		if p, ok := part[s.Name]; ok {
			sums[p] += ms(s.dur())
		}
	}
	out := map[string]float64{}
	covered := 0.0
	for _, p := range []string{"query", "plan", "algorithm", "gather", "project", "serialize"} {
		out["trace.share."+p] = ratio(sums[p], front)
		covered += out["trace.share."+p]
	}
	out["trace.share.other"] = 0
	if front > 0 {
		out["trace.share.other"] = 1 - covered
	}
	return out
}

// snapshotOf reads the plan-cache hit rate and shed count of a system that is
// a service; ok is false for an engine.
func snapshotOf(sys system) (hitRate, shed float64, ok bool) {
	s, isServe := sys.(*serveSys)
	if !isServe {
		return 0, 0, false
	}
	m := s.svc.Snapshot()
	return ratio(float64(m.PlanCache.Hits), float64(m.PlanCache.Hits+m.PlanCache.Misses)), float64(m.Shed), true
}
