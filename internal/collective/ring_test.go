package collective

import (
	"testing"
	"testing/quick"

	"lightpath/internal/rng"
)

// fillRandom returns a fill function seeded per (chip, index).
func fillRandom(seed uint64) func(chip, i int) float64 {
	return func(chip, i int) float64 {
		r := rng.New(seed ^ uint64(chip)<<32 ^ uint64(i))
		return r.Float64()*10 - 5
	}
}

func ringOf(p int) []int {
	ring := make([]int, p)
	for i := range ring {
		ring[i] = 100 + i // non-contiguous IDs to catch index/ID mixups
	}
	return ring
}

func TestRingReduceScatterCorrect(t *testing.T) {
	var ip Interp
	for _, p := range []int{2, 3, 4, 8} {
		for _, n := range []int{p, 16, 17, 100} {
			ring := ringOf(p)
			sched, own, err := RingReduceScatter("rs", ring, n, 4, nil)
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			if sched.NumSteps() != p-1 {
				t.Fatalf("p=%d: steps = %d, want %d", p, sched.NumSteps(), p-1)
			}
			st := NewState(ring, n, fillRandom(7))
			ref := ReduceAcrossInto(nil, st, ring, n)
			if err := ip.Execute(st, sched); err != nil {
				t.Fatalf("p=%d n=%d execute: %v", p, n, err)
			}
			owned := map[int]Range{}
			for i, chip := range ring {
				owned[chip] = own.Owned(i)
			}
			if err := CheckReduceScatter(st, owned, ref); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

func TestRingAllGatherCorrect(t *testing.T) {
	var ip Interp
	for _, p := range []int{2, 4, 5} {
		n := 40
		ring := ringOf(p)
		own := RingOwnership{Parent: Range{0, n}, P: p, Offset: 0}
		sched, err := RingAllGather("ag", ring, own, n, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Seed: each chip has its owned chunk filled with its ring
		// position+1, rest zero.
		st := NewState(ring, n, nil)
		want := make([]float64, n)
		for i, chip := range ring {
			r := own.Owned(i)
			for j := r.Lo; j < r.Hi; j++ {
				st[chip][j] = float64(i + 1)
				want[j] = float64(i + 1)
			}
		}
		if err := ip.Execute(st, sched); err != nil {
			t.Fatal(err)
		}
		if err := CheckAllReduce(st, ring, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestRingAllReduceCorrect(t *testing.T) {
	var ip Interp
	for _, p := range []int{2, 3, 4, 8} {
		n := 50
		ring := ringOf(p)
		sched, err := RingAllReduce("ar", ring, n, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sched.NumSteps() != 2*(p-1) {
			t.Fatalf("p=%d: steps = %d, want %d", p, sched.NumSteps(), 2*(p-1))
		}
		st := NewState(ring, n, fillRandom(11))
		ref := ReduceAcrossInto(nil, st, ring, n)
		if err := ip.Execute(st, sched); err != nil {
			t.Fatal(err)
		}
		if err := CheckAllReduce(st, ring, ref); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// Property test (testing/quick): ring AllReduce computes the exact sum
// for arbitrary ring sizes, buffer lengths and inputs.
func TestRingAllReduceProperty(t *testing.T) {
	var ip Interp
	f := func(pRaw, nRaw uint8, seed uint64) bool {
		p := int(pRaw%7) + 2  // 2..8
		n := int(nRaw%64) + 1 // 1..64
		ring := ringOf(p)
		sched, err := RingAllReduce("prop", ring, n, 4, nil)
		if err != nil {
			return false
		}
		st := NewState(ring, n, fillRandom(seed))
		ref := ReduceAcrossInto(nil, st, ring, n)
		if err := ip.Execute(st, sched); err != nil {
			return false
		}
		return CheckAllReduce(st, ring, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRingValidation(t *testing.T) {
	if _, _, err := RingReduceScatter("x", []int{1}, 8, 4, nil); err == nil {
		t.Error("1-member ring accepted")
	}
	if _, _, err := RingReduceScatter("x", []int{1, 2, 1}, 8, 4, nil); err == nil {
		t.Error("duplicate-member ring accepted")
	}
	if _, err := RingAllGather("x", []int{1, 2}, RingOwnership{Parent: Range{0, 8}, P: 3}, 8, 4, nil); err == nil {
		t.Error("ownership/ring size mismatch accepted")
	}
	if _, err := RingAllReduce("x", nil, 8, 4, nil); err == nil {
		t.Error("nil ring accepted")
	}
}

func TestRingSchedulesValidate(t *testing.T) {
	ring := ringOf(4)
	sched, err := RingAllReduce("v", ring, 64, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
}

func TestDimResolverApplied(t *testing.T) {
	ring := []int{0, 1, 2, 3}
	sched, _, err := RingReduceScatter("d", ring, 16, 4, func(from, to int) int { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sched.Steps {
		for _, tr := range st.Transfers {
			if tr.Dim != 7 {
				t.Fatalf("dim = %d, want 7", tr.Dim)
			}
		}
	}
	// Nil resolver leaves -1.
	sched2, _, _ := RingReduceScatter("d2", ring, 16, 4, nil)
	if sched2.Steps[0].Transfers[0].Dim != -1 {
		t.Fatal("nil resolver should leave Dim = -1")
	}
}

// Per-step, each chip sends at most N/p elements: the ring algorithm's
// bandwidth-optimality precondition used by Table 1.
func TestRingStepPayloads(t *testing.T) {
	p, n := 8, 800
	ring := ringOf(p)
	sched, _, err := RingReduceScatter("pl", ring, n, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, b := range sched.MaxBytesPerChipStep() {
		if int(b) != n/p {
			t.Fatalf("step %d: max payload %v, want %d", si, b, n/p)
		}
	}
}

func TestSmallBufferYieldsEmptyChunks(t *testing.T) {
	var ip Interp
	// n < p: some chunks are empty; schedule must still be correct.
	p, n := 8, 3
	ring := ringOf(p)
	sched, own, err := RingReduceScatter("small", ring, n, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(ring, n, fillRandom(3))
	ref := ReduceAcrossInto(nil, st, ring, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	owned := map[int]Range{}
	for i, chip := range ring {
		owned[chip] = own.Owned(i)
	}
	if err := CheckReduceScatter(st, owned, ref); err != nil {
		t.Fatal(err)
	}
}
