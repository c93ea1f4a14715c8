package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func testService(cfg Config) *Service {
	s := New(cfg)
	s.Register(workload.Uniform("R", []string{"a", "b"}, 120, 40, 1))
	s.Register(workload.Uniform("S", []string{"a", "b"}, 120, 40, 2))
	s.Register(workload.Uniform("T", []string{"a", "b"}, 120, 40, 3))
	return s
}

func TestDoJoinQuery(t *testing.T) {
	s := testService(Config{P: 4})
	resp, err := s.Do(Request{Tenant: "t1", Query: "q(x, y, z) :- R(x, y), S(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "join" || resp.Algorithm == "" {
		t.Fatalf("resp %+v", resp)
	}
	if len(resp.Columns) != 3 || resp.Columns[0] != "x" {
		t.Fatalf("columns %v", resp.Columns)
	}
	if resp.Rows != len(resp.Output) && !resp.Truncated {
		t.Fatalf("rows %d output %d truncated %v", resp.Rows, len(resp.Output), resp.Truncated)
	}
	if resp.CacheHit {
		t.Fatal("first query cannot hit the plan cache")
	}
}

// TestRegisterMakesSets pins where relations become sets: Register
// stores a bag as the first occurrence of each row, in order, and a set
// as the same object; Do then answers with exactly core.Reference's
// rows over the sets. A three-row R that repeats one row, joined with a
// two-row S, has 4 answers, where a bag gave 6 under the binary joins.
func TestRegisterMakesSets(t *testing.T) {
	s := New(Config{P: 4})
	r := relation.FromRows("R", []string{"x", "y"}, [][]relation.Value{{1, 2}, {1, 2}, {3, 2}})
	sRel := relation.FromRows("S", []string{"y", "z"}, [][]relation.Value{{2, 5}, {2, 6}})
	s.Register(r)
	s.Register(sRel)
	if got := s.rels["R"]; !slices.Equal(got.Flat(), []relation.Value{1, 2, 3, 2}) || got.Name() != "R" {
		t.Fatalf("registered bag stored as %s %v, want R [1 2 3 2]", got.Name(), got.Flat())
	}
	if s.rels["S"] != sRel {
		t.Fatal("registered set was copied")
	}
	resp, err := s.Do(Request{Query: "q(x, y, z) :- R(x, y), S(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(hypergraph.TwoWayJoin(), map[string]*relation.Relation{"R": r.Distinct(), "S": sRel})
	got := relation.FromRows("q", resp.Columns, resp.Output)
	if resp.Rows != want.Len() || got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("Do answered %d rows %v, core.Reference has %d", resp.Rows, resp.Output, want.Len())
	}
}

func TestDoResultCap(t *testing.T) {
	s := testService(Config{P: 4, MaxResultRows: 5})
	resp, err := s.Do(Request{Query: "q(x, y) :- R(x, y)."})
	if err != nil {
		t.Fatal(err)
	}
	// Register makes R a set, which may shave a few of the 120 generated
	// tuples; the cap and the full count are what matter.
	if resp.Rows <= 5 || len(resp.Output) != 5 || !resp.Truncated {
		t.Fatalf("rows=%d len=%d truncated=%v", resp.Rows, len(resp.Output), resp.Truncated)
	}
}

func TestDoParseAndCompileErrors(t *testing.T) {
	s := testService(Config{P: 4})
	_, err := s.Do(Request{Query: "q(x) :- R(x,"})
	if err == nil || !strings.HasPrefix(err.Error(), "query: ") {
		t.Fatalf("parse error %v", err)
	}
	_, err = s.Do(Request{Query: "q(x, y) :- Missing(x, y)."})
	if err == nil || !strings.Contains(err.Error(), `unknown relation "Missing"`) {
		t.Fatalf("compile error %v", err)
	}
}

// Cache behavior: alpha-equivalent shapes hit, Register invalidates
// only plans that read the re-registered relation, and the cached
// response keeps the planner's original rationale.
func TestPlanCacheLifecycle(t *testing.T) {
	s := testService(Config{P: 4})
	first, err := s.Do(Request{Query: "q(x, y, z) :- R(x, y), S(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Do(Request{Query: "other(a, b, c) :- R(a, b), S(b, c)."})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("alpha-equivalent query missed the plan cache")
	}
	if second.Algorithm != first.Algorithm || second.Reason != first.Reason {
		t.Fatalf("cached response diverged: %+v vs %+v", second, first)
	}
	// A plan over T is untouched by re-registering R.
	if _, err := s.Do(Request{Query: "p(x, y) :- T(x, y)."}); err != nil {
		t.Fatal(err)
	}
	s.Register(workload.Uniform("R", []string{"a", "b"}, 200, 40, 9))
	third, err := s.Do(Request{Query: "q(x, y, z) :- R(x, y), S(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("plan survived invalidation of a relation it read")
	}
	tq, err := s.Do(Request{Query: "p(x, y) :- T(x, y)."})
	if err != nil {
		t.Fatal(err)
	}
	if !tq.CacheHit {
		t.Fatal("plan over T was wrongly invalidated by re-registering R")
	}
	st := s.Snapshot().PlanCache
	if st.Invalidations == 0 {
		t.Fatalf("invalidation counter not incremented: %+v", st)
	}
}

func TestDoRecursive(t *testing.T) {
	s := New(Config{P: 4})
	s.Register(relation.FromRows("E", []string{"s", "d"}, [][]relation.Value{{1, 2}, {2, 3}, {3, 4}}))
	resp, err := s.Do(Request{Query: "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "recursive" || resp.Rows != 6 || resp.Iterations < 1 {
		t.Fatalf("resp %+v", resp)
	}
	if resp.CacheHit {
		t.Fatal("recursive plans are not cacheable")
	}

	// A capacity profile of the wrong length fails every query with an
	// error; it used to panic the process on the first recursive one.
	bad := New(Config{P: 4, Capacities: []float64{1, 2}})
	bad.Register(relation.FromRows("E", []string{"s", "d"}, [][]relation.Value{{1, 2}, {2, 3}}))
	if _, err := bad.Do(Request{Query: "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z)."}); err == nil {
		t.Fatal("recursive query under a short capacity profile should fail")
	}
}

func TestDoTrace(t *testing.T) {
	s := testService(Config{P: 4})
	resp, err := s.Do(Request{Query: "q(x, y, z) :- R(x, y), S(y, z).", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == "" {
		t.Fatal("trace requested but empty")
	}
	line := strings.SplitN(resp.Trace, "\n", 2)[0]
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("trace is not JSONL: %v in %q", err, line)
	}
	plain, err := s.Do(Request{Query: "q(x, y, z) :- R(x, y), S(y, z)."})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != "" {
		t.Fatal("trace returned without being requested")
	}
}

func TestQuotaBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	q := newQuotas(1, 3, clock)
	for i := 0; i < 3; i++ {
		if err := q.allow("a"); err != nil {
			t.Fatalf("burst request %d rejected: %v", i, err)
		}
	}
	err := q.allow("a")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "a" {
		t.Fatalf("expected quota error for a, got %v", err)
	}
	if err := q.allow("b"); err != nil {
		t.Fatalf("tenant b throttled by a's bucket: %v", err)
	}
	// One second refills one token at rate 1.
	mu.Lock()
	now = t0.Add(time.Second)
	mu.Unlock()
	if err := q.allow("a"); err != nil {
		t.Fatalf("refill failed: %v", err)
	}
	if err := q.allow("a"); err == nil {
		t.Fatal("second token appeared from a one-second refill at rate 1")
	}
	if q.Rejects()["a"] != 2 {
		t.Fatalf("rejects %v", q.Rejects())
	}
}

func TestAdmissionShedding(t *testing.T) {
	a := newAdmission(1, 1, 20*time.Millisecond)
	if err := a.acquire(); err != nil {
		t.Fatal(err)
	}
	// Queue slot: waits, times out, shed.
	start := time.Now()
	if err := a.acquire(); err != ErrOverloaded {
		t.Fatalf("queued request not shed: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("shed before the queue deadline")
	}
	// Fill the queue, then an extra request sheds immediately.
	done := make(chan error, 1)
	go func() { done <- a.acquire() }()
	for {
		a.mu.Lock()
		w := a.waiting
		a.mu.Unlock()
		if w == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(); err != ErrOverloaded {
		t.Fatalf("over-queue request not shed immediately: %v", err)
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("queued request should win the freed slot: %v", err)
	}
	a.release()
	if a.HighWater() != 1 {
		t.Fatalf("high water %d", a.HighWater())
	}
	if a.Shed() != 2 {
		t.Fatalf("shed %d", a.Shed())
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	c.put(planEntry{key: "a", rels: []string{"R"}})
	c.put(planEntry{key: "b", rels: []string{"S"}})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put(planEntry{key: "c", rels: []string{"R"}}) // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	c.invalidate("R")
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived invalidation")
	}
	st := c.stats()
	if st.Invalidations != 2 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHTTPStatuses(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := testService(Config{P: 4, QuotaRate: 0.0001, QuotaBurst: 1, Clock: func() time.Time { return t0 }})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	resp, m := post(`{"tenant":"t1","query":"q(x, y, z) :- R(x, y), S(y, z)."}`)
	if resp.StatusCode != 200 || m["algorithm"] == "" {
		t.Fatalf("ok query: %d %v", resp.StatusCode, m)
	}
	resp, m = post(`{"tenant":"t2","query":"q(x) :- R(x,"}`)
	if resp.StatusCode != 400 || !strings.Contains(m["error"].(string), "query: ") {
		t.Fatalf("parse error: %d %v", resp.StatusCode, m)
	}
	resp, _ = post(`{"tenant":"t1","query":"q(x, y) :- R(x, y)."}`)
	if resp.StatusCode != 429 {
		t.Fatalf("second t1 query should be over quota, got %d", resp.StatusCode)
	}
	resp, _ = post(`not json`)
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	resp, _ = post(`{}`)
	if resp.StatusCode != 400 {
		t.Fatalf("empty query: %d", resp.StatusCode)
	}

	r, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", r.StatusCode)
	}
	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	if err := json.NewDecoder(r.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if metrics.Queries < 3 || metrics.QuotaRejects["t1"] != 1 {
		t.Fatalf("metrics %+v", metrics)
	}
}
