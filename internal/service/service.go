package service

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"mpcquery/internal/core"
	"mpcquery/internal/query"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Config tunes one Service instance. Zero values fall back to the
// documented defaults.
type Config struct {
	// P is the simulated cluster size every query runs on (default 8).
	P int
	// Seed drives hashing and placement; equal seeds give bit-identical
	// executions (default 1).
	Seed int64
	// MaxInflight bounds concurrently executing queries (default 4).
	MaxInflight int
	// MaxQueue bounds queries waiting for a slot; beyond it requests
	// are shed immediately (default 16).
	MaxQueue int
	// QueueTimeout is how long a queued query waits for a slot before
	// being shed (default 100ms).
	QueueTimeout time.Duration
	// QuotaRate is each tenant's sustained queries/second; 0 disables
	// quotas.
	QuotaRate float64
	// QuotaBurst is each tenant's bucket capacity (default max(QuotaRate, 1)).
	QuotaBurst float64
	// PlanCacheSize is the LRU capacity of the plan cache (default 128).
	PlanCacheSize int
	// MaxResultRows caps the rows embedded in a response; the full count
	// is always reported (default 100).
	MaxResultRows int
	// Adaptive routes HyperCube executions through the skew-reactive
	// driver: a metered probe round switches the run to SkewHC when the
	// uniform plan's skew prediction turns out wrong mid-query.
	Adaptive bool
	// Capacities declares a heterogeneous per-server capacity profile
	// (len must equal P, entries > 0); HyperCube executions then use
	// capacity-proportional cell ownership. Nil means uniform.
	Capacities []float64
	// Clock overrides the quota clock (tests only; default time.Now).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.P == 0 {
		c.P = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.QuotaBurst == 0 {
		c.QuotaBurst = c.QuotaRate
		if c.QuotaBurst < 1 {
			c.QuotaBurst = 1
		}
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 128
	}
	if c.MaxResultRows == 0 {
		c.MaxResultRows = 100
	}
	return c
}

// Service is a multi-tenant query service: it owns a registered data
// set, compiles Datalog text through the internal/query frontend, and
// executes on a core engine behind admission control, per-tenant
// quotas, and a plan cache.
type Service struct {
	cfg    Config
	engine *core.Engine
	admit  *admission
	quota  *quotas
	cache  *planCache

	mu       sync.RWMutex
	rels     map[string]*relation.Relation
	versions map[string]uint64

	statsMu sync.Mutex
	queries uint64
	failed  uint64
}

// New builds a Service from cfg (zero fields take defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	engine := core.NewEngine(cfg.P, cfg.Seed)
	engine.Adaptive = cfg.Adaptive
	engine.Capacities = cfg.Capacities
	s := &Service{
		cfg:      cfg,
		engine:   engine,
		admit:    newAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueTimeout),
		cache:    newPlanCache(cfg.PlanCacheSize),
		rels:     map[string]*relation.Relation{},
		versions: map[string]uint64{},
	}
	if cfg.QuotaRate > 0 {
		s.quota = newQuotas(cfg.QuotaRate, cfg.QuotaBurst, cfg.Clock)
	}
	return s
}

// Register installs (or replaces) a relation under its own name, bumps
// its version, and invalidates every cached plan that depended on it.
func (s *Service) Register(rel *relation.Relation) {
	s.mu.Lock()
	s.rels[rel.Name()] = rel
	s.versions[rel.Name()]++
	s.mu.Unlock()
	s.cache.invalidate(rel.Name())
}

// Relations lists the registered relation names, sorted.
func (s *Service) Relations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Request is one query submission.
type Request struct {
	// Tenant identifies the quota bucket; empty means the anonymous
	// tenant.
	Tenant string `json:"tenant"`
	// Query is the Datalog program text.
	Query string `json:"query"`
	// Trace, when true, attaches a recorder and returns the per-round
	// event stream as JSONL.
	Trace bool `json:"trace"`
}

// Cost is the metered MPC cost of one execution.
type Cost struct {
	MaxLoad   int64 `json:"l"`
	Rounds    int   `json:"r"`
	TotalComm int64 `json:"c"`
}

// Response is the outcome of one admitted, executed query. Rows is the
// answer's full row count, of which Output holds the first
// MaxResultRows. Registered relations are taken to be sets: a duplicate
// tuple in one may repeat bindings, and then Rows depends on which
// algorithm ran.
type Response struct {
	Kind      string             `json:"kind"`
	Algorithm string             `json:"algorithm"`
	Reason    string             `json:"reason,omitempty"`
	Columns   []string           `json:"columns"`
	Rows      int                `json:"rows"`
	Output    [][]relation.Value `json:"output"`
	Truncated bool               `json:"truncated,omitempty"`
	Cost      Cost               `json:"cost"`
	// Iterations is the semi-naive iteration count (recursive only).
	Iterations int `json:"iterations,omitempty"`
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool `json:"plan_cache_hit"`
	// Trace is the JSONL event stream when requested.
	Trace string `json:"trace,omitempty"`
}

// Do runs one query end to end: quota, admission, parse, compile
// against the current catalog, plan (through the cache), execute.
// Error types classify the failure: *query.Error (bad request),
// *QuotaError (over quota), ErrOverloaded (shed); anything else is an
// execution failure.
func (s *Service) Do(req Request) (*Response, error) {
	resp, err := s.do(req)
	s.statsMu.Lock()
	s.queries++
	if err != nil {
		s.failed++
	}
	s.statsMu.Unlock()
	return resp, err
}

func (s *Service) do(req Request) (*Response, error) {
	if err := s.quota.allow(req.Tenant); err != nil {
		return nil, err
	}
	if err := s.admit.acquire(); err != nil {
		return nil, err
	}
	defer s.admit.release()

	prog, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	rels, cat, versions := s.snapshot()
	c, err := query.Compile(prog, cat)
	if err != nil {
		return nil, err
	}

	e := *s.engine
	var rec *trace.Recorder
	if req.Trace {
		rec = trace.NewRecorder()
		e.Trace = rec
	}

	alg := core.AlgAuto
	var cached *planEntry
	cacheable := c.Kind != query.KindRecursive
	var key string
	if cacheable {
		key = fmt.Sprintf("%s|p=%d|%s", c.ShapeKey(), s.cfg.P, fingerprint(relsOf(c), rels, versions))
		if entry, ok := s.cache.get(key); ok {
			cached = &entry
			alg = entry.alg
		}
	}

	res, err := c.Run(&e, rels, alg)
	if err != nil {
		return nil, err
	}
	if cacheable && cached == nil {
		s.cache.put(planEntry{key: key, alg: res.Algorithm, reason: res.Reason, rels: relsOf(c)})
	}
	reason := res.Reason
	if cached != nil {
		// The engine reports "forced by request" for the cached
		// algorithm; surface the original planner rationale instead.
		reason = cached.reason
	}

	out := res.Output
	total := out.Len()
	limit := total
	truncated := false
	if limit > s.cfg.MaxResultRows {
		limit = s.cfg.MaxResultRows
		truncated = true
	}
	rows := make([][]relation.Value, limit)
	for i := 0; i < limit; i++ {
		rows[i] = append([]relation.Value{}, out.Row(i)...)
	}

	resp := &Response{
		Kind:       c.Kind.String(),
		Algorithm:  string(res.Algorithm),
		Reason:     reason,
		Columns:    out.Attrs(),
		Rows:       total,
		Output:     rows,
		Truncated:  truncated,
		Cost:       Cost{MaxLoad: res.MaxLoad, Rounds: res.Rounds, TotalComm: res.TotalComm},
		Iterations: res.Iterations,
		CacheHit:   cached != nil,
	}
	if rec != nil {
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
			return nil, fmt.Errorf("service: encode trace: %w", err)
		}
		resp.Trace = buf.String()
	}
	return resp, nil
}

// snapshot captures the current data set under one read lock: the
// relation map handed to execution, the catalog the compiler checks
// against, and the version counters the plan-cache fingerprint reads.
func (s *Service) snapshot() (map[string]*relation.Relation, *query.Catalog, map[string]uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rels := make(map[string]*relation.Relation, len(s.rels))
	cat := query.NewCatalog()
	versions := make(map[string]uint64, len(s.versions))
	for n, r := range s.rels {
		rels[n] = r
		cat.Add(n, r.Arity())
		versions[n] = s.versions[n]
	}
	return rels, cat, versions
}

// fingerprint hashes the statistics identity of exactly the relations
// one query reads (name, version, cardinality, sorted): the plan cache
// key component that changes when — and only when — data the planner
// looked at changes.
func fingerprint(names []string, rels map[string]*relation.Relation, versions map[string]uint64) string {
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s/%d/%d;", n, versions[n], rels[n].Len())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// relsOf lists the distinct catalog relations a compiled query reads —
// the plan cache invalidation index.
func relsOf(c *query.Compiled) []string {
	set := map[string]bool{}
	for _, src := range c.RelFor {
		set[src] = true
	}
	if c.Recursive != nil {
		set[c.Recursive.EdgeRel] = true
		if c.Recursive.SourceRel != "" {
			set[c.Recursive.SourceRel] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Metrics is the /metrics snapshot.
type Metrics struct {
	Queries           uint64            `json:"queries"`
	Failed            uint64            `json:"failed"`
	Shed              uint64            `json:"shed"`
	InflightHighWater int               `json:"inflight_high_water"`
	PlanCache         CacheStats        `json:"plan_cache"`
	QuotaRejects      map[string]uint64 `json:"quota_rejects,omitempty"`
}

// Snapshot returns current service counters.
func (s *Service) Snapshot() Metrics {
	s.statsMu.Lock()
	q, f := s.queries, s.failed
	s.statsMu.Unlock()
	return Metrics{
		Queries:           q,
		Failed:            f,
		Shed:              s.admit.Shed(),
		InflightHighWater: s.admit.HighWater(),
		PlanCache:         s.cache.stats(),
		QuotaRejects:      s.quota.Rejects(),
	}
}
