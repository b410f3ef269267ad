package netsim

import (
	"fmt"
	"math"

	"lightpath/internal/engine"
	"lightpath/internal/unit"
)

// This file is the component-sharded solver: RunSharded partitions
// the flow set into the connected components of the sharing graph
// (already computed by build for the incremental refill) and runs an
// entire independent fluid simulation per component, fanning the
// components across an engine worker pool. It is how netsim scales
// from the thousands of flows a single wafer carries to the millions
// a rail-optimized datacenter fabric carries (the RailFabric
// campaign): components never exchange bytes, so their simulations
// are embarrassingly parallel, and the global O(flows) scan per
// completion event that Run pays shrinks to a per-component scan.
//
// Determinism. Every piece of solver state a component touches —
// rates, frozen, residual, users, remaining, active, FlowEnd,
// Delivered — is indexed by interned flow or resource id, and every
// id belongs to exactly one component (a fuzz target,
// FuzzComponentPartition, pins that invariant). The workers therefore
// write disjoint storage, the "merge" of per-component results is the
// identity mapping in interned-id order, and the only cross-component
// folds (the makespan max, the first-error selection) run
// sequentially in ascending order after the pool drains. A parallel
// run is byte-identical to a sequential one by construction, not by
// tolerance; the differential tests assert it bit for bit.
//
// Relation to Run. Within one component RunSharded performs exactly
// Run's arithmetic: refill at every completion event, minimum
// time-to-completion step, identical float operation order. Across
// components it differs deliberately — Run advances a single global
// clock, interleaving every component's completion events into one
// dt sequence, while RunSharded advances each component's clock
// independently. In exact arithmetic the results coincide; in floats
// the global interleaving rounds differently, so RunSharded's
// contract is: each component's results are bit-identical to running
// Run on that component's flows alone (and Run stays bit-identical
// to the fairRates oracle via the existing differential tests).

// RunSharded simulates the flows sharing the given resource
// capacities until all complete, like Run, but solves each connected
// component of the sharing graph as an independent simulation and
// fans the components across the engine worker pool
// (engine.SetWorkers governs the fan-out; results
// are byte-identical either way). The returned slices alias the Sim's
// storage and are valid until the next call on this Sim.
func (s *Sim[R]) RunSharded(flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	if _, err := s.build(flows, caps); err != nil {
		return Result{}, err
	}
	n := len(flows)
	s.flowEnd = growZero(s.flowEnd, n)
	s.delivered = growZero(s.delivered, n)
	s.remaining = grow(s.remaining, n)
	for i, f := range flows {
		s.remaining[i] = float64(f.Bytes)
	}

	workers := engine.ShardWorkers(s.nComp)
	s.shardOrder = grow(s.shardOrder, workers)
	s.compErr = grow(s.compErr, s.nComp)
	for c := range s.compErr {
		s.compErr[c] = nil
	}
	engine.RunShards(workers, s.nComp, func(worker, c int) {
		s.compErr[c] = s.runComponent(int32(c), flows, worker)
	})
	// Deterministic error selection: the lowest-index component's
	// error, exactly what a sequential component loop that stops at
	// the first failure would surface.
	for c := 0; c < s.nComp; c++ {
		if err := s.compErr[c]; err != nil {
			return Result{}, err
		}
	}

	res := Result{FlowEnd: s.flowEnd, Delivered: s.delivered}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}

// runComponent runs the complete fluid simulation of one component:
// refill the component's rates, advance to its earliest completion,
// retire finished flows, repeat. It writes only state owned by the
// component's flows (plus the per-worker census arena), so concurrent
// calls on distinct components never touch the same memory.
func (s *Sim[R]) runComponent(c int32, flows []Flow[R], worker int) error {
	fls := s.compFlows[s.compFlowStart[c]:s.compFlowStart[c+1]]
	remaining := s.remaining
	active := 0
	for _, f := range fls {
		if remaining[f] > 0 {
			active++
		}
	}
	order := s.shardOrder[worker]
	now := 0.0
	//lightpath:hotloop
	for active > 0 {
		order = s.refill(c, order)
		rates := s.rates
		// Advance to the component's earliest completion.
		dt := math.Inf(1)
		for _, f := range fls {
			if remaining[f] <= 0 {
				continue
			}
			if rates[f] <= 0 {
				s.shardOrder[worker] = order
				return fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, f)
			}
			if t := remaining[f] / rates[f]; t < dt {
				dt = t
			}
		}
		now += dt
		for _, f := range fls {
			if remaining[f] <= 0 {
				continue
			}
			remaining[f] -= rates[f] * dt
			// Tolerate float round-off at the completion boundary.
			if remaining[f] <= 1e-6 {
				remaining[f] = 0
				s.flowEnd[f] = unit.Seconds(now)
				s.delivered[f] = flows[f].Bytes
				active--
				s.active[f] = false
			}
		}
	}
	s.shardOrder[worker] = order
	return nil
}
