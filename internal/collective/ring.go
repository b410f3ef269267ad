package collective

import (
	"fmt"

	"lightpath/internal/unit"
)

// DimResolver maps a (from, to) chip pair to the torus dimension their
// link traverses, or -1. A nil resolver leaves Dim unset (-1).
type DimResolver func(from, to int) int

func resolveDim(r DimResolver, from, to int) int {
	if r == nil {
		return -1
	}
	return r(from, to)
}

// RingOwnership describes which subrange of a parent range each ring
// member owns after a ReduceScatter (or must own before an AllGather):
// member at ring position i owns sub-chunk (i+Offset) mod p.
type RingOwnership struct {
	Parent Range
	P      int
	Offset int
}

// Owned returns the range owned by ring position i.
func (o RingOwnership) Owned(i int) Range {
	return o.Parent.Sub(((i+o.Offset)%o.P+o.P)%o.P, o.P)
}

// ringReduceScatterSteps appends the p-1 ReduceScatter steps of one
// ring over the given range to steps (extending steps if needed) and
// returns the extended slice. Step s: member i sends chunk
// (i - s) mod p to member i+1, which reduces it. Transfers from
// multiple rings in the same collective phase land in the same step
// indices, modeling their concurrency.
func ringReduceScatterSteps(steps []Step, ring []int, r Range, dim DimResolver, base int) []Step {
	p := len(ring)
	for s := 0; s < p-1; s++ {
		for len(steps) <= base+s {
			steps = append(steps, Step{})
		}
		for i := 0; i < p; i++ {
			chunk := ((i-s)%p + p) % p
			sub := r.Sub(chunk, p)
			if sub.Empty() {
				continue
			}
			from, to := ring[i], ring[(i+1)%p]
			steps[base+s].Transfers = append(steps[base+s].Transfers, Transfer{
				From:   from,
				To:     to,
				Range:  sub,
				DstLo:  InPlace,
				Reduce: true,
				Dim:    resolveDim(dim, from, to),
			})
		}
	}
	return steps
}

// ringAllGatherSteps appends the p-1 AllGather steps of one ring whose
// members start owning chunk (i+offset) mod p of the range. Step s:
// member i sends chunk (i - s + offset) mod p to member i+1 (copy).
func ringAllGatherSteps(steps []Step, ring []int, r Range, offset int, dim DimResolver, base int) []Step {
	p := len(ring)
	for s := 0; s < p-1; s++ {
		for len(steps) <= base+s {
			steps = append(steps, Step{})
		}
		for i := 0; i < p; i++ {
			chunk := ((i-s+offset)%p + p) % p
			sub := r.Sub(chunk, p)
			if sub.Empty() {
				continue
			}
			from, to := ring[i], ring[(i+1)%p]
			steps[base+s].Transfers = append(steps[base+s].Transfers, Transfer{
				From:  from,
				To:    to,
				Range: sub,
				DstLo: InPlace,
				Dim:   resolveDim(dim, from, to),
			})
		}
	}
	return steps
}

// validateRing rejects degenerate or duplicate-member rings.
func validateRing(ring []int) error {
	if len(ring) < 2 {
		return fmt.Errorf("collective: ring needs at least 2 members, got %d", len(ring))
	}
	seen := map[int]bool{}
	for _, c := range ring {
		if seen[c] {
			return fmt.Errorf("collective: ring repeats chip %d", c)
		}
		seen[c] = true
	}
	return nil
}

// RingReduceScatter builds the classic (p-1)-step ring ReduceScatter
// over the given chip cycle: n elements of elemBytes each, split into
// p chunks; after the schedule, ring member i holds the fully reduced
// chunk (i+1) mod p. This is the single-ring execution of the paper's
// Slice-1 (Table 1: 7 alpha steps over 8 chips).
func RingReduceScatter(name string, ring []int, n int, elemBytes unit.Bytes, dim DimResolver) (*Schedule, RingOwnership, error) {
	if err := validateRing(ring); err != nil {
		return nil, RingOwnership{}, err
	}
	full := Range{Lo: 0, Hi: n}
	sched := &Schedule{Name: name, N: n, ElemBytes: elemBytes}
	sched.Steps = ringReduceScatterSteps(nil, ring, full, dim, 0)
	return sched, RingOwnership{Parent: full, P: len(ring), Offset: 1}, nil
}

// RingAllGather builds the (p-1)-step ring AllGather over the chip
// cycle, where member i initially owns chunk (i+ownership.Offset) mod p
// of ownership.Parent. After the schedule every member holds the whole
// parent range.
//
// Public beside RingReduceScatter: it is the gather half
// RingAllReduce composes, and the ring proofs verify it alone.
func RingAllGather(name string, ring []int, own RingOwnership, n int, elemBytes unit.Bytes, dim DimResolver) (*Schedule, error) {
	if err := validateRing(ring); err != nil {
		return nil, err
	}
	if own.P != len(ring) {
		return nil, fmt.Errorf("collective: ownership for %d members, ring has %d", own.P, len(ring))
	}
	sched := &Schedule{Name: name, N: n, ElemBytes: elemBytes}
	sched.Steps = ringAllGatherSteps(nil, ring, own.Parent, own.Offset, dim, 0)
	return sched, nil
}

// RingAllReduce builds the standard 2(p-1)-step ring AllReduce:
// ReduceScatter followed by AllGather of the reduced chunks.
func RingAllReduce(name string, ring []int, n int, elemBytes unit.Bytes, dim DimResolver) (*Schedule, error) {
	rs, own, err := RingReduceScatter(name+"/rs", ring, n, elemBytes, dim)
	if err != nil {
		return nil, err
	}
	ag, err := RingAllGather(name+"/ag", ring, own, n, elemBytes, dim)
	if err != nil {
		return nil, err
	}
	return rs.Concat(name, ag)
}
