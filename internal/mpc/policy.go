// One-round distribution policies and the round that runs them.

package mpc

import (
	"slices"
	"strconv"

	"mpcquery/internal/relation"
)

// Policy is a one-round distribution policy for one stored fragment: a
// deterministic map from each of its rows to a set of servers (arXiv
// 1412.4030), compiled once before the round. Cluster.Shuffle runs
// policies; a round that computes what it sends, or routes by the
// server RNG, stays a Round closure. The kinds are:
//
//   - Hash: a row goes to its Owner under HashSeed(seed, vars...) on
//     the columns that hold vars (Stream.SendByHash);
//   - Broadcast: a row goes to every server (Stream.BroadcastAll);
//   - Grid: a row goes once to every server that hosts a cell of a
//     HyperCube grid its hashed coordinates address, every free
//     dimension enumerated. Patterns splits the rows over one grid per
//     heavy-hitter pattern.
type Policy struct {
	kind  policyKind
	vars  []string // Hash: the variables, resolved to columns per fragment
	seed  uint64   // Hash: HashSeed(seed, vars...)
	grids []grid   // Grid: one; Patterns: one per pattern
	heavy [][]relation.Value
	want  []uint64
}

type policyKind uint8

const (
	hashPolicy policyKind = iota
	broadcastPolicy
	gridPolicy
	patternPolicy
)

// grid is one compiled HyperCube route: a row's base cell is the sum
// of its hashed coordinates times their strides, its cells are base + o
// for each o in offsets, dimension 0 outermost, and it goes once to
// each distinct owner of those cells, in the order of their first cell.
type grid struct {
	hashed  []hashedDim
	offsets []int
	owner   []int // owner[c] hosts cell c
	// ident marks an identity owner table (every uniform cluster's):
	// a row's cells then have distinct owners, and the grid loop needs
	// no marks to tell them apart.
	ident bool
}

// hashedDim is one dimension a fragment fixes: coordinate
// Hash64(row[col], seed) mod share, weighted by the dimension's stride.
type hashedDim struct {
	col           int
	seed          uint64
	share, stride int
}

// Hash is the policy that hash-partitions a fragment on the columns
// holding vars, under HashSeed(seed, vars...): fragments hashed on the
// same variables under one query seed meet on one server, whatever
// columns the variables sit in.
func Hash(seed uint64, vars ...string) Policy {
	return Policy{kind: hashPolicy, vars: vars, seed: HashSeed(seed, vars...)}
}

// Broadcast is the policy that replicates a fragment to every server.
func Broadcast() Policy { return Policy{kind: broadcastPolicy} }

// Grid compiles a HyperCube grid route with one dimension per share,
// the last dimension varying fastest: dimension d has seed seeds[d], and
// is fixed by hashing column cols[d] of a row, or free when cols[d] < 0.
// owner[c] is the server that hosts cell c; a nil owner hosts cell c on
// server c. A row is sent once to each server that hosts one of its
// cells, however many of them it hosts.
func Grid(shares []int, seeds []uint64, cols []int, owner []int) Policy {
	cells := 1
	for _, s := range shares {
		cells *= s
	}
	if owner == nil {
		owner = make([]int, cells)
		for c := range owner {
			owner[c] = c
		}
	}
	g := grid{offsets: []int{0}, owner: owner, ident: true}
	for c, d := range owner {
		g.ident = g.ident && c == d
	}
	stride := cells
	for d, share := range shares {
		stride /= share
		switch {
		case share == 1: // coordinate 0 whether fixed or free
		case cols[d] >= 0:
			g.hashed = append(g.hashed, hashedDim{col: cols[d], seed: seeds[d], share: share, stride: stride})
		default:
			offs := make([]int, 0, len(g.offsets)*share)
			for _, o := range g.offsets {
				for c := 0; c < share; c++ {
					offs = append(offs, o+c*stride)
				}
			}
			g.offsets = offs
		}
	}
	return Policy{kind: gridPolicy, grids: []grid{g}}
}

// Patterns splits a fragment over plain grids by heavy-hitter pattern:
// heavy[j] lists the heavy values of column j, sorted, and a row whose
// heavy bits (bit j set iff row[j] is heavy) equal want[i] takes
// grids[i], on stream To@i.
func Patterns(heavy [][]relation.Value, want []uint64, grids ...Policy) Policy {
	pl := Policy{kind: patternPolicy, heavy: heavy, want: want}
	for _, g := range grids {
		pl.grids = append(pl.grids, g.grids[0])
	}
	return pl
}

// SendRow sends row on st to every server of a grid's route: the
// per-row form of the grid, for a round that decides row by row, as
// Owner is the per-row form of a hash policy.
func (pl Policy) SendRow(st *Stream, row []relation.Value) {
	g := &pl.grids[0]
	b, seen := g.base(row), st.out.seen()
	st.out.mark++
	for _, o := range g.offsets {
		if d := g.owner[b+o]; seen[d] != st.out.mark {
			seen[d] = st.out.mark
			st.SendRow(d, row)
		}
	}
}

// Send is one input of a shuffle: the fragment stored under From on
// every server, routed by Policy onto the stream To.
type Send struct {
	From, To string
	Policy   Policy
}

// Shuffle runs one metered round that does nothing but route stored
// fragments: on every server, each send in order opens its stream with
// the fragment's schema, counts each destination, presizes, and sends.
// A server that holds no fragment From sends nothing for it. The local
// step that follows stays with the algorithm.
func (c *Cluster) Shuffle(name string, sends ...Send) {
	c.Round(name, func(srv *Server, out *Out) {
		for i := range sends {
			if frag := srv.rels[sends[i].From]; frag != nil {
				sends[i].Policy.send(out, sends[i].To, frag)
			}
		}
	})
}

// count adds to loads[d] the tuples pl sends server d from frag.
func (pl Policy) count(o *Out, frag *relation.Relation, loads []int64) {
	add := func(counts []int) {
		for d, n := range counts {
			loads[d] += int64(n)
		}
	}
	switch pl.kind {
	case hashPolicy:
		dsts, counts := o.scratch(frag.Len())
		hashPartition(frag, frag.MustCols(pl.vars), pl.seed, dsts, counts)
		add(counts)
	case broadcastPolicy:
		for d := range loads {
			loads[d] += int64(frag.Len())
		}
	case gridPolicy:
		add(pl.grids[0].count(o, frag, nil, 0))
	default:
		bits := pl.heavyBits(frag)
		for i := range pl.grids {
			add(pl.grids[i].count(o, frag, bits, pl.want[i]))
		}
	}
}

// heavyBits returns, per row of frag, the Patterns bits of its heavy
// columns: bit j set iff row[j] is heavy.
func (pl Policy) heavyBits(frag *relation.Relation) []uint64 {
	bits := make([]uint64, frag.Len())
	for i := range bits {
		for j, v := range frag.Row(i) {
			if _, ok := slices.BinarySearch(pl.heavy[j], v); ok {
				bits[i] |= 1 << j
			}
		}
	}
	return bits
}

// send is one server's side of the policy on frag.
func (pl Policy) send(out *Out, to string, frag *relation.Relation) {
	attrs := frag.Attrs()
	switch {
	case pl.kind == hashPolicy:
		var buf [8]int // the columns stay on the stack: a warm hash send allocates nothing
		cols := buf[:0]
		for _, v := range pl.vars {
			cols = append(cols, frag.MustCol(v))
		}
		out.Open(to, attrs...).SendByHash(frag, cols, pl.seed)
	case pl.kind == broadcastPolicy:
		out.Open(to, attrs...).BroadcastAll(frag)
	case pl.kind == gridPolicy:
		pl.grids[0].send(out.Open(to, attrs...), frag, nil, 0)
	default:
		bits := pl.heavyBits(frag)
		for i := range pl.grids {
			pl.grids[i].send(out.Open(to+"@"+strconv.Itoa(i), attrs...), frag, bits, pl.want[i])
		}
	}
}

// base returns the cell that row's hashed coordinates address, every
// free coordinate being 0.
func (g *grid) base(row []relation.Value) int {
	b := 0
	for _, h := range g.hashed {
		b += int(relation.Hash64(row[h.col], h.seed)%uint64(h.share)) * h.stride
	}
	return b
}

// count is the grid loop's counting pass: it stores in o.bases each
// row's base cell, -1 for a row whose heavy bits differ from want, and
// returns how many rows go to each server. A row's servers are told
// apart by marking them in the Out's seen table with a number no
// earlier row used.
func (g *grid) count(o *Out, frag *relation.Relation, bits []uint64, want uint64) []int {
	bases, counts := o.scratch(frag.Len())
	seen := o.seen()
	flat, k := frag.Flat(), frag.Arity()
	for i := range bases {
		if bits != nil && bits[i] != want {
			bases[i] = -1
			continue
		}
		b := g.base(flat[i*k : i*k+k])
		bases[i] = int32(b)
		o.mark++
		for _, off := range g.offsets {
			d := g.owner[b+off]
			if !g.ident {
				if seen[d] == o.mark {
					continue
				}
				seen[d] = o.mark
			}
			counts[d]++
		}
	}
	return counts
}

// send is the grid loop: the rows of frag whose heavy bits equal want
// (every row when bits is nil) go on st once to each server that hosts
// a cell of their route. It counts every destination first and
// presizes, so routing a fragment allocates the same whatever its
// length.
func (g *grid) send(st *Stream, frag *relation.Relation, bits []uint64, want uint64) {
	out := st.out
	pos := g.count(out, frag, bits, want)
	st.extend(pos)
	seen, dst := out.seen(), st.st.perDst
	flat, k := frag.Flat(), frag.Arity()
	for i, b := range out.bases {
		if b < 0 {
			continue
		}
		row := flat[i*k : i*k+k]
		out.mark++
		for _, o := range g.offsets {
			d := g.owner[int(b)+o]
			if !g.ident {
				if seen[d] == out.mark {
					continue
				}
				seen[d] = out.mark
			}
			if w := pos[d]; k == 2 {
				dst[d][w], dst[d][w+1] = row[0], row[1]
			} else {
				copy(dst[d][w:w+k], row)
			}
			pos[d] += k
		}
	}
}
