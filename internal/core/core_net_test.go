package core

import (
	"testing"

	"mpcquery/internal/mpcnet"
)

// TestEngineTransportParity: an Engine with a TCP transport attached
// must produce executions bit-identical to the default engine — same
// output relation (order included), same (L, r, C), same trace events —
// across planner-chosen algorithms.
func TestEngineTransportParity(t *testing.T) {
	reqs := map[string]Request{
		"join2":    twoWayRequest(400, 5),
		"triangle": triangleRequest(60, 400, 5),
	}
	for name, req := range reqs {
		name, req := name, req
		t.Run(name, func(t *testing.T) {
			local := NewEngine(8, 5)
			want, err := local.Execute(req)
			if err != nil {
				t.Fatalf("local execute: %v", err)
			}

			tr, err := mpcnet.NewLoopback(8, mpcnet.Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			tcp := NewEngine(8, 5)
			tcp.Transport = tr
			got, err := tcp.Execute(req)
			if err != nil {
				t.Fatalf("tcp execute: %v", err)
			}

			if got.Algorithm != want.Algorithm || got.Rounds != want.Rounds ||
				got.MaxLoad != want.MaxLoad || got.TotalComm != want.TotalComm {
				t.Fatalf("execution differs: tcp (%s, r=%d, L=%d, C=%d) vs local (%s, r=%d, L=%d, C=%d)",
					got.Algorithm, got.Rounds, got.MaxLoad, got.TotalComm,
					want.Algorithm, want.Rounds, want.MaxLoad, want.TotalComm)
			}
			if got.Output.Len() != want.Output.Len() {
				t.Fatalf("output %d vs %d tuples", got.Output.Len(), want.Output.Len())
			}
			for i := 0; i < want.Output.Len(); i++ {
				gr, wr := got.Output.Row(i), want.Output.Row(i)
				for j := range wr {
					if gr[j] != wr[j] {
						t.Fatalf("output row %d: %v vs %v", i, gr, wr)
					}
				}
			}
			we, ge := want.Metrics.Events(), got.Metrics.Events()
			if len(we) != len(ge) {
				t.Fatalf("trace: %d vs %d events", len(we), len(ge))
			}
			for i := range we {
				if we[i] != ge[i] {
					t.Fatalf("trace event %d: %+v vs %+v", i, we[i], ge[i])
				}
			}
		})
	}
}
