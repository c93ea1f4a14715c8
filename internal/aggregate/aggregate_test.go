package aggregate

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func scatter(t *testing.T, p int, rel *relation.Relation) *mpc.Cluster {
	t.Helper()
	c := mpc.NewCluster(p, 1)
	c.ScatterRoundRobin(rel)
	return c
}

func salesRel(n int, seed int64) *relation.Relation {
	u := workload.Uniform("sales", []string{"g1", "g2", "v"}, n, 20, seed)
	return u
}

func TestRunSumMatchesLocal(t *testing.T) {
	rel := salesRel(5000, 3)
	c := scatter(t, 8, rel)
	spec := Spec{Rel: "sales", GroupBy: []string{"g1", "g2"}, Fn: relation.Sum,
		AggAttr: "v", OutAttr: "total", OutRel: "agg", Seed: 7}
	res, err := Run(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	got := c.Gather("agg")
	want := Local(rel, spec)
	if !got.EqualAsSets(want) {
		t.Fatalf("distributed sum differs: %d vs %d groups", got.Len(), want.Len())
	}
	if res.Groups != want.Len() {
		t.Fatalf("Groups = %d, want %d", res.Groups, want.Len())
	}
}

func TestRunCountMinMax(t *testing.T) {
	rel := salesRel(3000, 5)
	for _, fn := range []relation.AggFunc{relation.Count, relation.Min, relation.Max} {
		c := scatter(t, 4, rel)
		spec := Spec{Rel: "sales", GroupBy: []string{"g1"}, Fn: fn,
			AggAttr: "v", OutAttr: "a", OutRel: "agg", Seed: 9}
		if _, err := Run(c, spec); err != nil {
			t.Fatal(err)
		}
		got := c.Gather("agg")
		want := Local(rel, spec)
		if !got.EqualAsSets(want) {
			t.Fatalf("fn %d differs from local reference", fn)
		}
	}
}

// Groups split across servers must merge correctly: every server holds
// part of every group under round-robin placement.
func TestGroupsSplitAcrossServers(t *testing.T) {
	rel := relation.New("sales", "g", "v")
	for i := 0; i < 100; i++ {
		rel.Append(relation.Value(i%3), relation.Value(i))
	}
	c := scatter(t, 8, rel)
	spec := Spec{Rel: "sales", GroupBy: []string{"g"}, Fn: relation.Sum,
		AggAttr: "v", OutAttr: "s", OutRel: "agg", Seed: 1}
	if _, err := Run(c, spec); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("agg")
	if got.Len() != 3 {
		t.Fatalf("groups = %d, want 3", got.Len())
	}
	if !got.EqualAsSets(Local(rel, spec)) {
		t.Fatal("split-group sums wrong")
	}
}

// Each group's final aggregate must live on exactly one server.
func TestGroupOwnership(t *testing.T) {
	rel := salesRel(2000, 7)
	c := scatter(t, 8, rel)
	spec := Spec{Rel: "sales", GroupBy: []string{"g1", "g2"}, Fn: relation.Count,
		OutAttr: "n", OutRel: "agg", Seed: 3}
	if _, err := Run(c, spec); err != nil {
		t.Fatal(err)
	}
	// EncodeKey is an identity key here (which server owns this group);
	// nothing depends on the lexicographic order of the encoded strings.
	seen := map[string]int{}
	for i := 0; i < c.P(); i++ {
		frag := c.Server(i).Rel("agg")
		if frag == nil {
			continue
		}
		for j := 0; j < frag.Len(); j++ {
			k := relation.EncodeKey(frag.Row(j), []int{0, 1})
			if prev, ok := seen[k]; ok && prev != i {
				t.Fatalf("group on servers %d and %d", prev, i)
			}
			seen[k] = i
		}
	}
}

// TestCombinerReducesLoad is the ablation: with the combiner the
// shuffle ships at most |groups| per server; without it, every tuple.
func TestCombinerReducesLoad(t *testing.T) {
	rel := salesRel(20000, 9) // only 20×20 = 400 possible groups
	base := Spec{Rel: "sales", GroupBy: []string{"g1", "g2"}, Fn: relation.Sum,
		AggAttr: "v", OutAttr: "s", OutRel: "agg", Seed: 5}

	cWith := scatter(t, 8, rel)
	if _, err := Run(cWith, base); err != nil {
		t.Fatal(err)
	}
	withLoad := cWith.Metrics().MaxLoad()

	specNo := base
	specNo.NoCombiner = true
	cWithout := scatter(t, 8, rel)
	if _, err := Run(cWithout, specNo); err != nil {
		t.Fatal(err)
	}
	withoutLoad := cWithout.Metrics().MaxLoad()

	if withLoad*4 > withoutLoad {
		t.Fatalf("combiner should cut load dramatically: with %d, without %d", withLoad, withoutLoad)
	}
	// Results agree regardless.
	if !cWith.Gather("agg").EqualAsSets(cWithout.Gather("agg")) {
		t.Fatal("combiner changed the result")
	}
}

func TestCountWithoutCombinerCorrect(t *testing.T) {
	rel := salesRel(1000, 11)
	spec := Spec{Rel: "sales", GroupBy: []string{"g1"}, Fn: relation.Count,
		OutAttr: "n", OutRel: "agg", Seed: 2, NoCombiner: true}
	c := scatter(t, 4, rel)
	if _, err := Run(c, spec); err != nil {
		t.Fatal(err)
	}
	if !c.Gather("agg").EqualAsSets(Local(rel, spec)) {
		t.Fatal("no-combiner count wrong")
	}
}

func TestRunValidation(t *testing.T) {
	c := mpc.NewCluster(2, 1)
	if _, err := Run(c, Spec{Rel: "x", OutRel: "y"}); err == nil {
		t.Fatal("missing group-by should error")
	}
	if _, err := Run(c, Spec{GroupBy: []string{"g"}}); err == nil {
		t.Fatal("missing relation names should error")
	}
}

func TestEmptyInput(t *testing.T) {
	c := mpc.NewCluster(4, 1)
	c.ScatterRoundRobin(relation.New("sales", "g", "v"))
	res, err := Run(c, Spec{Rel: "sales", GroupBy: []string{"g"}, Fn: relation.Sum,
		AggAttr: "v", OutAttr: "s", OutRel: "agg", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 0 {
		t.Fatalf("empty input produced %d groups", res.Groups)
	}
}

// Local computes the same aggregation on a gathered relation — the
// single-machine reference for verification.
func Local(rel *relation.Relation, spec Spec) *relation.Relation {
	return relation.GroupBy(spec.OutRel, rel, spec.GroupBy, spec.Fn, spec.AggAttr, spec.OutAttr)
}
