package collective

import (
	"fmt"
	"sort"

	"lightpath/internal/unit"
)

// Test-only oracles and measurements: production code never calls
// them, so they live in the test build.

// CheckAllToAll verifies the post-state of an AllToAll executed from
// a state where chip chips[i]'s send half had block j filled by
// fill(i, j, element): afterwards chip chips[j]'s recv half must hold
// fill(i, j, element) in block i for every i != j, and every send
// half must be untouched.
func CheckAllToAll(st State, chips []int, n int, fill func(i, j, el int) float64) error {
	p := len(chips)
	send := Range{Lo: 0, Hi: n}
	for j, chip := range chips {
		buf := st[chip]
		if len(buf) != 2*n {
			return fmt.Errorf("collective: chip %d buffer length %d, want %d", chip, len(buf), 2*n)
		}
		// Send half untouched.
		for jj := 0; jj < p; jj++ {
			block := send.Sub(jj, p)
			for el := block.Lo; el < block.Hi; el++ {
				if want := fill(j, jj, el-block.Lo); !approxEqual(buf[el], want) {
					return fmt.Errorf("collective: chip %d send block %d mutated: element %d = %v, want %v",
						chip, jj, el-block.Lo, buf[el], want)
				}
			}
		}
		// Recv half holds block i from chip i, for i != j.
		for i := 0; i < p; i++ {
			if i == j {
				continue
			}
			block := send.Sub(i, p)
			for el := block.Lo; el < block.Hi; el++ {
				got := buf[n+el]
				if want := fill(i, j, el-block.Lo); !approxEqual(got, want) {
					return fmt.Errorf("collective: chip %d recv block %d element %d = %v, want %v",
						chip, i, el-block.Lo, got, want)
				}
			}
		}
	}
	return nil
}

// CheckReduceScatter verifies each chip's owned range holds the
// reference reduction, that owned ranges are disjoint, and that they
// jointly cover [0, n).
func CheckReduceScatter(st State, owned map[int]Range, ref []float64) error {
	covered := make([]int, len(ref))
	chips := make([]int, 0, len(owned))
	for c := range owned {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	for _, c := range chips {
		r := owned[c]
		buf := st[c]
		for i := r.Lo; i < r.Hi; i++ {
			if !approxEqual(buf[i], ref[i]) {
				return fmt.Errorf("collective: chip %d owned element %d = %v, want %v", c, i, buf[i], ref[i])
			}
			covered[i]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			return fmt.Errorf("collective: element %d covered %d times, want exactly once", i, n)
		}
	}
	return nil
}

// MaxBytesPerChipStep returns, for each step, the largest payload any
// single chip sends in that step — the quantity the alpha-beta model
// divides by per-chip bandwidth.
func (s *Schedule) MaxBytesPerChipStep() []unit.Bytes {
	out := make([]unit.Bytes, len(s.Steps))
	for i, st := range s.Steps {
		perChip := map[int]unit.Bytes{}
		for _, tr := range st.Transfers {
			perChip[tr.From] += tr.Bytes(s.ElemBytes)
		}
		for _, b := range perChip {
			if b > out[i] {
				out[i] = b
			}
		}
	}
	return out
}
