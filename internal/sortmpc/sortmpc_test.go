package sortmpc

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func scatterUniform(t *testing.T, p, n int, seed int64) (*mpc.Cluster, *relation.Relation) {
	t.Helper()
	c := mpc.NewCluster(p, seed)
	r := workload.Uniform("R", []string{"k", "v"}, n, n*4, seed)
	c.ScatterRoundRobin(r)
	return c, r
}

func TestIntervalOf(t *testing.T) {
	sp := [][]relation.Value{{10}, {20}, {30}}
	cases := []struct {
		k    relation.Value
		want int
	}{
		{5, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}, {30, 2}, {31, 3}, {1000, 3},
	}
	for _, tc := range cases {
		if got := IntervalOf([]relation.Value{tc.k}, sp); got != tc.want {
			t.Errorf("IntervalOf(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	if IntervalOf([]relation.Value{5}, nil) != 0 {
		t.Error("no splitters should map to 0")
	}
	// Composite keys compare lexicographically.
	csp := [][]relation.Value{{10, 5}, {10, 9}}
	if got := IntervalOf([]relation.Value{10, 5}, csp); got != 0 {
		t.Errorf("composite (10,5) interval = %d, want 0", got)
	}
	if got := IntervalOf([]relation.Value{10, 7}, csp); got != 1 {
		t.Errorf("composite (10,7) interval = %d, want 1", got)
	}
	if got := IntervalOf([]relation.Value{11, 0}, csp); got != 2 {
		t.Errorf("composite (11,0) interval = %d, want 2", got)
	}
}

func TestLexLess(t *testing.T) {
	if !LexLess([]relation.Value{1, 5}, []relation.Value{2, 0}) {
		t.Error("(1,5) < (2,0)")
	}
	if !LexLess([]relation.Value{1, 5}, []relation.Value{1, 6}) {
		t.Error("(1,5) < (1,6)")
	}
	if LexLess([]relation.Value{1, 5}, []relation.Value{1, 5}) {
		t.Error("(1,5) not < itself")
	}
}

// TestPSRSCompositeKeySplitsHeavyValue: sorting by (k, uid) lets a
// heavily duplicated k value spread over multiple servers while the
// partition stays balanced — the property the parallel sort join
// exploits (slide 31).
func TestPSRSCompositeKeySplitsHeavyValue(t *testing.T) {
	const n, p = 4000, 8
	c := mpc.NewCluster(p, 1)
	r := relation.New("R", "k", "uid")
	for i := 0; i < n; i++ {
		r.Append(7, relation.Value(i)) // one single heavy value
	}
	c.ScatterRoundRobin(r)
	PSRS(c, "R", []string{"k", "uid"}, "sorted")
	if err := VerifySorted(c, "sorted", []string{"k", "uid"}); err != nil {
		t.Fatal(err)
	}
	if !c.Gather("sorted").EqualAsSets(r) {
		t.Fatal("lost tuples")
	}
	// The heavy value must be split: no server may hold more than half
	// the input (single-key PSRS would put all of it on one server).
	if got := c.MaxFragLen("sorted"); got > n/2 {
		t.Fatalf("heavy value not split: max fragment %d of %d", got, n)
	}
	nonEmpty := 0
	for i := 0; i < c.P(); i++ {
		if frag := c.Server(i).Rel("sorted"); frag != nil && frag.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("heavy value occupies %d servers, want ≥ 2", nonEmpty)
	}
}

func TestPSRSSortsCorrectly(t *testing.T) {
	c, r := scatterUniform(t, 8, 2000, 3)
	res := PSRS(c, "R", []string{"k"}, "sorted")
	if err := VerifySorted(c, "sorted", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("sorted")
	if !got.EqualAsSets(r) {
		t.Fatal("sort lost or duplicated tuples")
	}
	if got.Len() != r.Len() {
		t.Fatalf("bag size %d != %d", got.Len(), r.Len())
	}
	if res.Rounds != 2 {
		t.Fatalf("PSRS rounds = %d, want 2", res.Rounds)
	}
	if len(res.Splitters) != 7 {
		t.Fatalf("splitters = %d, want p-1", len(res.Splitters))
	}
}

func TestPSRSLoadNearIdeal(t *testing.T) {
	// Slide 102: for p << N^{1/3}, PSRS load is O(N/p). Check the
	// partition round's max load is within 3x of N/p.
	const n, p = 8000, 8
	c, _ := scatterUniform(t, p, n, 5)
	PSRS(c, "R", []string{"k"}, "sorted")
	load := c.Metrics().MaxLoadOfRound("sort:partition")
	ideal := int64(n / p)
	if load > 3*ideal {
		t.Fatalf("partition load %d > 3× ideal %d", load, ideal)
	}
}

func TestPSRSRandomSample(t *testing.T) {
	c, r := scatterUniform(t, 8, 2000, 7)
	res := PSRSRandomSample(c, "R", []string{"k"}, "sorted", 32)
	if err := VerifySorted(c, "sorted", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if !c.Gather("sorted").EqualAsSets(r) {
		t.Fatal("random-sample sort lost tuples")
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestPSRSWithDuplicateKeys(t *testing.T) {
	c := mpc.NewCluster(4, 1)
	r := workload.UniformDegree("R", "k", "v", 1000, 50) // heavy duplication
	c.ScatterRoundRobin(r)
	PSRS(c, "R", []string{"k"}, "sorted")
	if err := VerifySorted(c, "sorted", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if !c.Gather("sorted").EqualAsSets(r) {
		t.Fatal("duplicate-key sort lost tuples")
	}
}

func TestPSRSEmptyAndTiny(t *testing.T) {
	c := mpc.NewCluster(4, 1)
	c.ScatterRoundRobin(relation.New("R", "k", "v"))
	PSRS(c, "R", []string{"k"}, "sorted")
	// Nothing to verify beyond not panicking; also a 1-tuple input:
	c2 := mpc.NewCluster(4, 1)
	one := relation.FromRows("R", []string{"k", "v"}, [][]relation.Value{{5, 0}})
	c2.ScatterRoundRobin(one)
	PSRS(c2, "R", []string{"k"}, "sorted")
	if err := VerifySorted(c2, "sorted", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if c2.TotalLen("sorted") != 1 {
		t.Fatal("tuple lost")
	}
}

func TestPSRSSingleServer(t *testing.T) {
	c := mpc.NewCluster(1, 1)
	r := workload.Uniform("R", []string{"k", "v"}, 100, 1000, 2)
	c.ScatterRoundRobin(r)
	PSRS(c, "R", []string{"k"}, "sorted")
	if err := VerifySorted(c, "sorted", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if !c.Gather("sorted").EqualAsSets(r) {
		t.Fatal("p=1 sort lost tuples")
	}
}

func TestFanLimitedSort(t *testing.T) {
	for _, fan := range []int{2, 3, 8} {
		c, r := scatterUniform(t, 8, 4000, int64(fan))
		res := FanLimitedSort(c, "R", []string{"k"}, "sorted", fan)
		if err := VerifySorted(c, "sorted", []string{"k"}); err != nil {
			t.Fatalf("fan=%d: %v", fan, err)
		}
		if !c.Gather("sorted").EqualAsSets(r) {
			t.Fatalf("fan=%d lost tuples", fan)
		}
		// Rounds grow as fan shrinks: fan=8 covers p=8 in one level
		// (2 rounds), fan=2 needs 3 levels (6 rounds).
		wantLevels := map[int]int{2: 3, 3: 2, 8: 1}[fan]
		if res.Rounds != 2*wantLevels {
			t.Fatalf("fan=%d rounds = %d, want %d", fan, res.Rounds, 2*wantLevels)
		}
	}
}

func TestFanLimitedSortRoundsTradeoff(t *testing.T) {
	// Smaller fan ⇒ more rounds (the log_L N trade-off).
	c2, _ := scatterUniform(t, 16, 2000, 1)
	r2 := FanLimitedSort(c2, "R", []string{"k"}, "sorted", 2)
	c4, _ := scatterUniform(t, 16, 2000, 1)
	r4 := FanLimitedSort(c4, "R", []string{"k"}, "sorted", 4)
	if r2.Rounds <= r4.Rounds {
		t.Fatalf("fan 2 rounds %d should exceed fan 4 rounds %d", r2.Rounds, r4.Rounds)
	}
}

func TestFanLimitedSortPanicsOnBadFan(t *testing.T) {
	c, _ := scatterUniform(t, 4, 100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FanLimitedSort(c, "R", []string{"k"}, "sorted", 1)
}

func TestVerifySortedDetectsViolation(t *testing.T) {
	c := mpc.NewCluster(2, 1)
	// Server 0 gets large keys, server 1 small: out of order.
	c.Server(0).Put(relation.FromRows("bad", []string{"k"}, [][]relation.Value{{100}}))
	c.Server(1).Put(relation.FromRows("bad", []string{"k"}, [][]relation.Value{{1}}))
	if err := VerifySorted(c, "bad", []string{"k"}); err == nil {
		t.Fatal("expected violation")
	}
	// Locally unsorted fragment.
	c2 := mpc.NewCluster(1, 1)
	c2.Server(0).Put(relation.FromRows("bad", []string{"k"}, [][]relation.Value{{5}, {3}}))
	if err := VerifySorted(c2, "bad", []string{"k"}); err == nil {
		t.Fatal("expected local violation")
	}
}
