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
// the compiled grid against the reference walk.
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
		checkGrid(t, shares, seeds, cols, []relation.Value{x, y, z, x ^ y})
	})
}
