package trace_test

// Golden-trace tests: the exporters' output for a fixed seed is part of
// the observability contract. Two fixed scenarios — a fault-free
// HyperCube triangle join and a fault-injected hash join — are run and
// both exports compared byte-for-byte against testdata/. Regenerate
// after an intentional format change with
//
//	go test ./internal/trace -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/join2"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// hypercubeTriangleTrace runs the fixed fault-free scenario: a
// one-round HyperCube triangle join on 8 servers, seed 42.
func hypercubeTriangleTrace(t *testing.T) *trace.Recorder {
	t.Helper()
	q := hypergraph.Triangle()
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 200, 60, 42+int64(i))
	}
	c := mpc.NewCluster(8, 42)
	rec := trace.NewRecorder()
	c.SetTracer(rec)
	if _, err := hypercube.Run(c, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
		t.Fatalf("hypercube.Run: %v", err)
	}
	return rec
}

// chaosHashJoinTrace runs the fixed fault-injected scenario: a parallel
// hash join on 5 servers under a mixed drop/duplicate/crash schedule,
// exercising the crash, backoff and chaos-summary event paths.
func chaosHashJoinTrace(t *testing.T) *trace.Recorder {
	t.Helper()
	r := workload.Uniform("R", []string{"x", "y"}, 150, 40, 7)
	s := workload.Uniform("S", []string{"y", "z"}, 150, 40, 8)
	c := mpc.NewCluster(5, 7)
	c.SetFaultInjector(chaos.MustParseSchedule("303:drop=0.1,dup=0.05,crash=0.1"))
	rec := trace.NewRecorder()
	c.SetTracer(rec)
	join2.HashJoin(c, r, s, "out", 7)
	if err := c.Err(); err != nil {
		t.Fatalf("chaos scenario must recover, got %v", err)
	}
	return rec
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (%d vs %d bytes); regenerate with -update if the change is intentional",
			name, len(got), len(want))
	}
}

func TestGoldenHypercubeTriangle(t *testing.T) {
	rec := hypercubeTriangleTrace(t)
	checkGolden(t, "hypercube_triangle.jsonl", trace.MarshalJSONL(rec.Events()))
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, rec.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	checkGolden(t, "hypercube_triangle.chrome.json", chrome.Bytes())
}

func TestGoldenChaosHashJoin(t *testing.T) {
	rec := chaosHashJoinTrace(t)
	checkGolden(t, "chaos_hashjoin.jsonl", trace.MarshalJSONL(rec.Events()))
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, rec.Events()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	checkGolden(t, "chaos_hashjoin.chrome.json", chrome.Bytes())
}

// TestGoldenRunsAreReproducible re-runs each scenario and asserts the
// two recordings are event-for-event identical — the determinism
// property the golden files rely on, checked independently of testdata.
func TestGoldenRunsAreReproducible(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T) *trace.Recorder
	}{
		{"hypercube_triangle", hypercubeTriangleTrace},
		{"chaos_hashjoin", chaosHashJoinTrace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(t), tc.run(t)
			if !bytes.Equal(trace.MarshalJSONL(a.Events()), trace.MarshalJSONL(b.Events())) {
				t.Error("two identically seeded runs produced different traces")
			}
		})
	}
}
