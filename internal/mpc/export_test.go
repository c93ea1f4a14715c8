package mpc

import "mpcquery/internal/relation"

// Test transports, exported for the external (package mpc_test)
// equivalence suites.

// LocalTransportWorkers is LocalTransport with the delivery worker
// count pinned, so tests exercise genuinely concurrent delivery (n > 1)
// or the sequential path (n = 1) whatever the machine's CPU count.
func LocalTransportWorkers(n int) Transport { return localTransport{workers: n} }

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
