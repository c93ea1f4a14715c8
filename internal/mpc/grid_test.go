package mpc

import (
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/relation"
)

// gridCells lists the cells a grid policy sends row to, in order.
func gridCells(pl Policy, row []relation.Value) []int {
	g := &pl.grids[0]
	var cells []int
	for _, o := range g.offsets {
		cells = append(cells, g.base(row)+o)
	}
	return cells
}

// checkGrid asserts that the compiled grid of (shares, seeds, cols)
// emits exactly the reference walk's cell sequence for row.
func checkGrid(t *testing.T, shares []int, seeds []uint64, cols []int, row []relation.Value) {
	t.Helper()
	got, want := gridCells(Grid(shares, seeds, cols, nil), row), WalkCells(shares, seeds, cols, row)
	if !slices.Equal(got, want) {
		t.Fatalf("shares %v cols %v row %v: grid %v, walk %v", shares, cols, row, got, want)
	}
}

// TestGridMatchesWalk draws random grids — one to four dimensions,
// shares 1–4 (share-1 dimensions included), each dimension free or
// fixed by any column of a row of arity 0–4, two dimensions by one
// column included — and checks that the compiled grid emits the
// reference walk's cell sequence for random rows.
func TestGridMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		arity := rng.Intn(5)
		shares, seeds, cols := make([]int, k), make([]uint64, k), make([]int, k)
		for d := range shares {
			shares[d] = 1 + rng.Intn(4)
			seeds[d] = rng.Uint64()
			cols[d] = rng.Intn(arity+1) - 1
		}
		row := make([]relation.Value, arity)
		for r := 0; r < 10; r++ {
			for j := range row {
				row[j] = relation.Value(rng.Int63n(1<<20) - 1<<19)
			}
			checkGrid(t, shares, seeds, cols, row)
		}
	}
}

// FuzzRoute fuzzes a grid — shares (one per byte, 1–4, up to four
// dimensions) and the column fixing each dimension (one per byte, free
// or any of four columns) — the row's values and the seed, and checks
// the compiled grid against the reference walk. It then hosts the grid
// on a box layout drawn from the seed, and checks that Cluster.Shuffle
// sends the row to exactly the servers whose box meets its slab, once
// each. Last, for every policy kind, Cluster.Loads must count per
// server what Shuffle meters as RoundStat.Recv on the same sends.
func FuzzRoute(f *testing.F) {
	f.Add([]byte{1, 1, 1}, []byte{1, 2}, int64(5), int64(9), int64(1), uint64(7))
	f.Add([]byte{0}, []byte{}, int64(0), int64(0), int64(0), uint64(0))
	f.Add([]byte{3, 0, 2, 3}, []byte{4, 4, 2, 0}, int64(-1), int64(1<<40), int64(7), uint64(42))
	f.Fuzz(func(t *testing.T, shareBytes, colBytes []byte, x, y, z int64, seed uint64) {
		if len(shareBytes) == 0 {
			shareBytes = []byte{0}
		}
		k := min(len(shareBytes), 4)
		shares, seeds, cols := make([]int, k), make([]uint64, k), make([]int, k)
		for d := range shares {
			shares[d] = 1 + int(shareBytes[d]%4)
			seeds[d] = seed + uint64(d)
			cols[d] = -1
			if d < len(colBytes) {
				cols[d] = int(colBytes[d]%5) - 1
			}
		}
		row := []relation.Value{x, y, z, x ^ y}
		checkGrid(t, shares, seeds, cols, row)
		checkBoxRoute(t, shares, seeds, cols, row, rand.New(rand.NewSource(int64(seed))))
		checkLoads(t, shares, seeds, cols, row, seed)
	})
}

// checkLoads scatters eight rows drawn from row over 1 to 5 servers
// and checks, for each policy kind alone and for all of them in one
// round, that Cluster.Loads counts exactly the RoundStat.Recv of a
// Shuffle of the same sends: hash, broadcast, the grid with cell c on
// server c mod p, and Patterns splitting the rows by whether column a
// holds row[0] over that grid and a hash-like grid on every dimension.
func checkLoads(t *testing.T, shares []int, seeds []uint64, cols []int, row []relation.Value, seed uint64) {
	t.Helper()
	c := NewCluster(1+int(seed%5), 1)
	frag := relation.New("R", "a", "b", "c", "d")
	for i := range relation.Value(8) {
		frag.Append(row[0]+i%3, row[1]^i, row[2], row[3]+i%2)
	}
	c.ScatterRoundRobin(frag)
	cells := 1
	for _, s := range shares {
		cells *= s
	}
	owner := make([]int, cells)
	for cell := range owner {
		owner[cell] = cell % c.P()
	}
	grid := Grid(shares, seeds, cols, owner)
	allCols := make([]int, len(shares))
	for d := range allCols {
		allCols[d] = d % 4
	}
	heavy := [][]relation.Value{{row[0]}, nil, nil, nil}
	kinds := [][]Send{
		{{From: "R", To: "h", Policy: Hash(seed, "c", "a")}},
		{{From: "R", To: "b", Policy: Broadcast()}},
		{{From: "R", To: "g", Policy: grid}},
		{{From: "R", To: "p", Policy: Patterns(heavy, []uint64{0, 1}, grid, Grid(shares, seeds, allCols, owner))}},
	}
	kinds = append(kinds, slices.Concat(kinds...))
	for _, sends := range kinds {
		loads := c.Loads("loads", sends...)
		c.Shuffle("loads", sends...)
		stats := c.Metrics().RoundStats()
		if recv := stats[len(stats)-1].Recv; !slices.Equal(loads, recv) {
			t.Fatalf("shares %v cols %v p %d sends %v: Loads %v, Shuffle received %v", shares, cols, c.P(), sends, loads, recv)
		}
	}
}

// testBox is a box of a grid: coordinate d in [lo[d], hi[d]).
type testBox struct{ lo, hi []int }

// randomBoxes splits the grid of the given shares into 1 to 6 disjoint
// boxes that cover it, by random guillotine cuts, one box per server.
func randomBoxes(shares []int, rng *rand.Rand) []testBox {
	bs := []testBox{{lo: make([]int, len(shares)), hi: slices.Clone(shares)}}
	for n := 1 + rng.Intn(6); len(bs) < n; {
		i, d := rng.Intn(len(bs)), rng.Intn(len(shares))
		b := bs[i]
		if b.hi[d]-b.lo[d] < 2 {
			if rng.Intn(8) == 0 {
				break // the grid may have too few cells to split further
			}
			continue
		}
		cut := b.lo[d] + 1 + rng.Intn(b.hi[d]-b.lo[d]-1)
		lo, hi := testBox{b.lo, slices.Clone(b.hi)}, testBox{slices.Clone(b.lo), b.hi}
		lo.hi[d], hi.lo[d] = cut, cut
		bs[i] = lo
		bs = append(bs, hi)
	}
	return bs
}

// checkBoxRoute hosts the grid on random boxes and checks that routing
// row reaches exactly the servers whose box meets its slab — every
// dimension the row fixes lands in the box's interval — once each.
func checkBoxRoute(t *testing.T, shares []int, seeds []uint64, cols []int, row []relation.Value, rng *rand.Rand) {
	t.Helper()
	bs := randomBoxes(shares, rng)
	cells := 1
	for _, s := range shares {
		cells *= s
	}
	owner := make([]int, cells)
	for c := range owner {
		rest := c
		coord := make([]int, len(shares))
		for d := len(shares) - 1; d >= 0; d-- {
			coord[d], rest = rest%shares[d], rest/shares[d]
		}
		for s, b := range bs {
			in := true
			for d := range coord {
				in = in && b.lo[d] <= coord[d] && coord[d] < b.hi[d]
			}
			if in {
				owner[c] = s
			}
		}
	}
	c := NewCluster(len(bs), 1)
	frag := relation.New("R", "a", "b", "c", "d")
	frag.Append(row...)
	c.Server(0).Put(frag)
	c.Shuffle("route", Send{From: "R", To: "g", Policy: Grid(shares, seeds, cols, owner)})
	for s, b := range bs {
		meets := true
		for d, col := range cols {
			if col >= 0 && shares[d] > 1 {
				x := int(relation.Hash64(row[col], seeds[d]) % uint64(shares[d]))
				meets = meets && b.lo[d] <= x && x < b.hi[d]
			}
		}
		want := 0
		if meets {
			want = 1
		}
		if got := c.Server(s).RelOrEmpty("g", frag.Attrs()...).Len(); got != want {
			t.Fatalf("shares %v cols %v boxes %v row %v: server %d received %d copies, want %d", shares, cols, bs, row, s, got, want)
		}
	}
}
