package mpc

import "mpcquery/internal/relation"

// FanOutWorkers returns how many fan-out workers have been started and
// how many of them are idle.
func FanOutWorkers() (started, idleNow int64) { return workers.Load(), idle.Load() }

// Test transports, exported for the external (package mpc_test)
// equivalence suites.

// PortableTransport is a delivery backend written purely against the
// exported Transport contract — RoundView enumeration in canonical
// per-destination order, chunked Land calls — with no access to mpc
// internals. It proves the interface is sufficient: any conforming
// transport must reproduce the local one bit for bit, and this is the
// minimal conforming transport.
type PortableTransport struct {
	// Chunk is the maximum tuples per Land call (0 = whole fragments).
	Chunk int64
}

// ReferenceTransport is the row-at-a-time referee for the local
// transport's bulk path: single-threaded, one Land per tuple. Metering
// and delivered fragments must be bit-for-bit identical between the two.
func ReferenceTransport() Transport { return PortableTransport{Chunk: 1} }

func (pt PortableTransport) Deliver(v *RoundView) error {
	for dst := 0; dst < v.P(); dst++ {
		for src := 0; src < v.P(); src++ {
			for i := 0; i < v.Streams(src); i++ {
				sv := v.Stream(src, i)
				flat, n := sv.Fragment(dst)
				arity := int64(len(sv.Attrs()))
				for off := int64(0); off < n; {
					k := pt.Chunk
					if k <= 0 || k > n-off {
						k = n - off
					}
					var part []relation.Value
					if arity > 0 {
						part = flat[off*arity : (off+k)*arity]
					}
					if err := v.Land(dst, sv.Name(), sv.Attrs(), part, k); err != nil {
						return err
					}
					off += k
				}
			}
		}
	}
	return nil
}

func (PortableTransport) Close() error { return nil }

// WalkCells is the reference a compiled Grid is checked against: the
// recursive walk routing used before routes were compiled. Dimension d
// is fixed by hashing row[cols[d]] under seeds[d] when cols[d] ≥ 0 and
// ranges over its full share otherwise; cells are listed with dimension
// 0 outermost.
func WalkCells(shares []int, seeds []uint64, cols []int, row []relation.Value) []int {
	k := len(shares)
	stride := make([]int, k)
	acc := 1
	for d := k - 1; d >= 0; d-- {
		stride[d] = acc
		acc *= shares[d]
	}
	var cells []int
	var walk func(dim, acc int)
	walk = func(dim, acc int) {
		switch {
		case dim == k:
			cells = append(cells, acc)
		case cols[dim] >= 0:
			walk(dim+1, acc+int(relation.Hash64(row[cols[dim]], seeds[dim])%uint64(shares[dim]))*stride[dim])
		default:
			for c := 0; c < shares[dim]; c++ {
				walk(dim+1, acc+c*stride[dim])
			}
		}
	}
	walk(0, 0)
	return cells
}
