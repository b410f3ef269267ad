package topo

import (
	"testing"

	"lightpath/internal/engine"
	"lightpath/internal/netsim"
	"lightpath/internal/rng"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// This file carries the cross-topology leg of the sharded-solver
// differential contract: on every Topology implementation, a
// component-parallel Sim.RunSharded must be byte-identical to a
// sequential one, and each connected component's results must be
// bit-identical to Sim.Run — the solver the existing netsim
// differential tests hold bit-for-bit to the fairRates oracle — on
// that component's flows alone.

// genTraffic draws random transfers over a topology's paths.
func genTraffic(tp Topology, seed uint64, n int) []netsim.Flow[int] {
	r := rng.New(seed).Split("topo-differential-" + tp.Name())
	flows := make([]netsim.Flow[int], 0, n)
	for i := 0; i < n; i++ {
		src := r.Intn(tp.Endpoints())
		dst := r.Intn(tp.Endpoints())
		if src == dst {
			dst = (dst + 1) % tp.Endpoints()
		}
		flows = append(flows, netsim.Flow[int]{
			Bytes: unit.Bytes(1 + r.Intn(1<<22)),
			Via:   tp.AppendPath(nil, src, dst),
		})
	}
	return flows
}

// flowComponents recomputes the sharing-graph partition of a flow set
// with a map-based union-find, independently of the solver's.
func flowComponents(flows []netsim.Flow[int]) (compOfFlow []int, nComp int) {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, f := range flows {
		if f.Bytes == 0 || len(f.Via) == 0 {
			continue
		}
		r0 := find(f.Via[0])
		for _, l := range f.Via[1:] {
			other := find(l)
			if other != r0 {
				if other < r0 {
					r0, other = other, r0
				}
				parent[other] = r0
			}
		}
	}
	compOfFlow = make([]int, len(flows))
	label := map[int]int{}
	for i, f := range flows {
		if f.Bytes == 0 || len(f.Via) == 0 {
			compOfFlow[i] = -1
			continue
		}
		root := find(f.Via[0])
		c, ok := label[root]
		if !ok {
			c = nComp
			label[root] = c
			nComp++
		}
		compOfFlow[i] = c
	}
	return compOfFlow, nComp
}

// TestShardedSolveAcrossTopologies runs the differential stack on
// random traffic over each fabric family.
func TestShardedSolveAcrossTopologies(t *testing.T) {
	tf, err := NewTorusFabric(torus.Shape{4, 4}, unit.GBps(50))
	if err != nil {
		t.Fatal(err)
	}
	rail, err := NewRail(4, 32, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh(4, wafer.DefaultConfig(), unit.GBps(200))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []Topology{tf, rail, mesh} {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			caps := Capacities(tp)
			for seed := uint64(0); seed < 20; seed++ {
				flows := genTraffic(tp, seed, 200)

				prevW := engine.SetWorkers(1)
				var seqSim netsim.Sim[int]
				seqRes, seqErr := seqSim.RunSharded(flows, caps)
				engine.SetWorkers(4)
				var parSim netsim.Sim[int]
				parRes, parErr := parSim.RunSharded(flows, caps)
				engine.SetWorkers(prevW)

				if seqErr != nil || parErr != nil {
					t.Fatalf("seed %d: sequential err %v, parallel err %v", seed, seqErr, parErr)
				}
				if seqRes.Makespan != parRes.Makespan {
					t.Fatalf("seed %d: makespan diverged: sequential %v, parallel %v", seed, seqRes.Makespan, parRes.Makespan)
				}
				for i := range flows {
					if seqRes.FlowEnd[i] != parRes.FlowEnd[i] {
						t.Fatalf("seed %d flow %d: end diverged: sequential %v, parallel %v", seed, i, seqRes.FlowEnd[i], parRes.FlowEnd[i])
					}
					if seqRes.Delivered[i] != parRes.Delivered[i] {
						t.Fatalf("seed %d flow %d: delivered diverged", seed, i)
					}
				}

				// Each component bit-identical to the oracle-anchored
				// solver on its flows alone.
				compOfFlow, nComp := flowComponents(flows)
				for c := 0; c < nComp; c++ {
					var sub []netsim.Flow[int]
					var idx []int
					for i := range flows {
						if compOfFlow[i] == c {
							sub = append(sub, flows[i])
							idx = append(idx, i)
						}
					}
					want, err := new(netsim.Sim[int]).Run(sub, caps)
					if err != nil {
						t.Fatalf("seed %d component %d: %v", seed, c, err)
					}
					for j, i := range idx {
						if seqRes.FlowEnd[i] != want.FlowEnd[j] {
							t.Fatalf("seed %d component %d flow %d: sharded %v, solo solve %v",
								seed, c, i, seqRes.FlowEnd[i], want.FlowEnd[j])
						}
						if seqRes.Delivered[i] != want.Delivered[j] {
							t.Fatalf("seed %d component %d flow %d: delivered diverged from solo solve", seed, c, i)
						}
					}
				}
			}
		})
	}
}
