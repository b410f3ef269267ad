package netsim

import (
	"fmt"
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file differentially tests the production solver (Sim, the
// interned CSR implementation in solver.go) against the reference
// oracle fairRates: on randomized flow sets the two must agree on
// every rate and every completion time bit for bit, because the CSR
// solver claims byte-identical output, not just approximate fairness.

// rateScratch is the reusable working storage of the max-min fair
// rate computation. The fluid simulators recompute rates once per
// completion event, so allocating these five structures per call
// dominated the simulator's allocation profile; a zero-value scratch
// is ready to use and is reset (not reallocated) on every call.
type rateScratch[R comparable] struct {
	rates    []float64
	frozen   []bool
	residual map[R]float64
	users    map[R]int
	order    []R
}

// reset prepares the scratch for n flows, reusing capacity.
func (s *rateScratch[R]) reset(n int, caps int) {
	if cap(s.rates) < n {
		s.rates = make([]float64, n)
		s.frozen = make([]bool, n)
	} else {
		s.rates = s.rates[:n]
		s.frozen = s.frozen[:n]
		for i := range s.rates {
			s.rates[i] = 0
			s.frozen[i] = false
		}
	}
	if s.residual == nil {
		s.residual = make(map[R]float64, caps)
		s.users = make(map[R]int, caps)
	} else {
		clear(s.residual)
		clear(s.users)
	}
	s.order = s.order[:0]
}

// fairRates computes max-min fair rates (bytes/second) by progressive
// filling: repeatedly find the most constrained resource, freeze its
// flows at the fair share, and remove them. It is the reference
// oracle the interned CSR solver (Sim, solver.go) is differentially
// tested against; production paths go through Sim.
func fairRates[R comparable](flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	var s rateScratch[R]
	return fairRatesInto(&s, flows, caps, remaining)
}

// fairRatesInto is fairRates with caller-owned scratch; the returned
// slice aliases the scratch and is valid until the next call with the
// same scratch.
func fairRatesInto[R comparable](s *rateScratch[R], flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	s.reset(len(flows), len(caps))
	rates, frozen := s.rates, s.frozen
	// Residual capacity in bytes/second. order fixes the bottleneck
	// scan to first-use order so equal-share ties always resolve the
	// same way regardless of map iteration order.
	residual, users, order := s.residual, s.users, s.order
	for i, f := range flows {
		if remaining[i] <= 0 {
			frozen[i] = true
			continue
		}
		for _, r := range f.Via {
			if users[r] == 0 {
				order = append(order, r)
				residual[r] = caps[r].BytesPerSecond()
			}
			users[r]++
		}
	}
	// order is complete once the census above finishes; saving it here
	// (instead of in a deferred closure) keeps the call defer-free.
	s.order = order

	for {
		// Most constrained resource: minimal residual / users.
		var bestR R
		best := math.Inf(1)
		found := false
		for _, r := range order {
			n := users[r]
			if n == 0 {
				continue
			}
			if share := residual[r] / float64(n); share < best {
				best = share
				bestR = r
				found = true
			}
		}
		if !found {
			return rates
		}
		// Freeze every unfrozen flow crossing the bottleneck.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			crosses := false
			for _, r := range f.Via {
				if r == bestR {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rates[i] = best
			frozen[i] = true
			for _, r := range f.Via {
				residual[r] -= best
				if residual[r] < 0 {
					residual[r] = 0
				}
				users[r]--
			}
		}
	}
}

// oracleRun is the pre-interning simulator loop: full fairRates
// recompute at every completion event. It is deliberately a verbatim
// transcription of the original Run so Sim.Run has an independent
// implementation to diverge from.
func oracleRun[R comparable](flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	n := len(flows)
	res := Result{FlowEnd: make([]unit.Seconds, n), Delivered: make([]unit.Bytes, n)}
	remaining := make([]float64, n)
	active := 0
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
		if f.Bytes > 0 {
			active++
		}
	}
	var scratch rateScratch[R]
	now := 0.0
	for active > 0 {
		rates := fairRatesInto(&scratch, flows, caps, remaining)
		dt := math.Inf(1)
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			if rates[i] <= 0 {
				return Result{}, fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, i)
			}
			if t := remaining[i] / rates[i]; t < dt {
				dt = t
			}
		}
		now += dt
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			remaining[i] -= rates[i] * dt
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
				res.FlowEnd[i] = unit.Seconds(now)
				res.Delivered[i] = flows[i].Bytes
				active--
			}
		}
	}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}

// genCase derives a random but valid flow set from a seed: nRes
// resources with varied capacities, flows crossing 1..4 of them
// (duplicates allowed — a flow may charge a resource twice), a
// sprinkling of zero-byte flows, and overlap density controlled by
// how small the resource pool is relative to the flow count.
func genCase(seed uint64) ([]Flow[int], map[int]unit.BitRate) {
	r := rng.New(seed).Split("differential")
	nRes := 1 + r.Intn(12)
	nFlows := 1 + r.Intn(24)
	caps := make(map[int]unit.BitRate, nRes)
	for i := 0; i < nRes; i++ {
		caps[i] = unit.GBps(float64(1 + r.Intn(8)))
	}
	flows := make([]Flow[int], nFlows)
	for i := range flows {
		if r.Intn(8) == 0 {
			// Zero-byte flow: completes at t=0 regardless of Via.
			flows[i] = Flow[int]{Bytes: 0}
			continue
		}
		via := make([]int, 1+r.Intn(4))
		for j := range via {
			via[j] = r.Intn(nRes)
		}
		flows[i] = Flow[int]{
			Bytes: unit.Bytes(1 + r.Intn(1<<20)),
			Via:   via,
		}
	}
	return flows, caps
}

// checkAgainstOracle runs both implementations on the flow set and
// fails on the first bitwise divergence in rates, completion times,
// or delivered bytes.
func checkAgainstOracle(t testing.TB, flows []Flow[int], caps map[int]unit.BitRate) {
	t.Helper()

	// Rates at t=0: the CSR solver's first full refill against the
	// oracle's progressive filling.
	remaining := make([]float64, len(flows))
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
	}
	want := fairRates(flows, caps, remaining)
	var sim Sim[int]
	if _, err := sim.build(flows, caps); err != nil {
		t.Fatalf("build: %v", err)
	}
	sim.computeRates()
	for i := range flows {
		if sim.rates[i] != want[i] {
			t.Fatalf("initial rate of flow %d: CSR %v, oracle %v", i, sim.rates[i], want[i])
		}
	}

	// Incremental recompute: retire flows one at a time (ascending, a
	// deterministic order distinct from completion order) and compare
	// the dirty-component refill against a from-scratch oracle call.
	for i := range flows {
		if remaining[i] == 0 {
			continue
		}
		remaining[i] = 0
		sim.active[i] = false
		sim.markFlowDirty(i)
		sim.computeRates()
		want = fairRates(flows, caps, remaining)
		for j := range flows {
			if remaining[j] > 0 && sim.rates[j] != want[j] {
				t.Fatalf("after retiring flow %d, rate of flow %d: CSR %v, oracle %v", i, j, sim.rates[j], want[j])
			}
		}
	}

	// End-to-end: completion times and delivered bytes.
	got, gotErr := new(Sim[int]).Run(flows, caps)
	ref, refErr := oracleRun(flows, caps)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence: CSR %v, oracle %v", gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	if got.Makespan != ref.Makespan {
		t.Fatalf("makespan: CSR %v, oracle %v", got.Makespan, ref.Makespan)
	}
	for i := range flows {
		if got.FlowEnd[i] != ref.FlowEnd[i] {
			t.Fatalf("flow %d end: CSR %v, oracle %v", i, got.FlowEnd[i], ref.FlowEnd[i])
		}
		if got.Delivered[i] != ref.Delivered[i] {
			t.Fatalf("flow %d delivered: CSR %v, oracle %v", i, got.Delivered[i], ref.Delivered[i])
		}
	}
}

// TestSolverMatchesOracleProperty sweeps seeded random flow sets —
// varying flow counts, shared-resource overlap, and zero-byte flows —
// asserting the CSR solver and the oracle agree bit for bit.
func TestSolverMatchesOracleProperty(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		flows, caps := genCase(seed)
		checkAgainstOracle(t, flows, caps)
	}
}

// TestSolverReuseAcrossCases reruns many cases through one Sim, since
// production callers hold a Sim across flow sets and stale scratch
// from a larger prior case must never leak into a smaller one.
func TestSolverReuseAcrossCases(t *testing.T) {
	var sim Sim[int]
	for seed := uint64(0); seed < 50; seed++ {
		flows, caps := genCase(seed)
		got, gotErr := sim.Run(flows, caps)
		ref, refErr := oracleRun(flows, caps)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("seed %d: error divergence: CSR %v, oracle %v", seed, gotErr, refErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Makespan != ref.Makespan {
			t.Fatalf("seed %d: makespan: CSR %v, oracle %v", seed, got.Makespan, ref.Makespan)
		}
		for i := range flows {
			if got.FlowEnd[i] != ref.FlowEnd[i] {
				t.Fatalf("seed %d: flow %d end: CSR %v, oracle %v", seed, i, got.FlowEnd[i], ref.FlowEnd[i])
			}
		}
	}
}

// FuzzFairRates feeds arbitrary seeds through the same generator and
// differential check; the committed corpus under testdata/fuzz pins
// the structurally interesting cases (single flow, heavy overlap,
// zero-byte mixes) so every `go test` run replays them.
func FuzzFairRates(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1023} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		flows, caps := genCase(seed)
		checkAgainstOracle(t, flows, caps)
	})
}
