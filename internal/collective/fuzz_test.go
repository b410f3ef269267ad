package collective

import (
	"testing"
)

// Native fuzz targets: run as seeded unit tests under `go test`, and
// explorable with `go test -fuzz=FuzzX ./internal/collective`.

// FuzzRingAllReduce checks the ring AllReduce computes exact sums for
// arbitrary geometry.
func FuzzRingAllReduce(f *testing.F) {
	var ip Interp
	f.Add(uint8(4), uint16(64), uint64(1))
	f.Add(uint8(2), uint16(1), uint64(2))
	f.Add(uint8(8), uint16(1000), uint64(3))
	f.Fuzz(func(t *testing.T, pRaw uint8, nRaw uint16, seed uint64) {
		p := int(pRaw%15) + 2
		n := int(nRaw%2048) + 1
		ring := make([]int, p)
		for i := range ring {
			ring[i] = i * 3 // non-contiguous IDs
		}
		sched, err := RingAllReduce("fuzz", ring, n, 4, nil)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		st := NewState(ring, n, fillRandom(seed))
		ref := ReduceAcrossInto(nil, st, ring, n)
		if err := ip.Execute(st, sched); err != nil {
			t.Fatalf("execute: %v", err)
		}
		if err := CheckAllReduce(st, ring, ref); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRangeSub checks subdivision always partitions.
func FuzzRangeSub(f *testing.F) {
	f.Add(0, 100, uint8(7))
	f.Add(5, 5, uint8(1))
	f.Fuzz(func(t *testing.T, lo, length int, pRaw uint8) {
		if lo < -1<<20 || lo > 1<<20 || length < 0 || length > 1<<20 {
			t.Skip()
		}
		p := int(pRaw%32) + 1
		r := Range{Lo: lo, Hi: lo + length}
		prev := r.Lo
		total := 0
		for j := 0; j < p; j++ {
			s := r.Sub(j, p)
			if s.Lo != prev {
				t.Fatalf("gap at chunk %d: %v", j, s)
			}
			prev = s.Hi
			total += s.Len()
		}
		if prev != r.Hi || total != r.Len() {
			t.Fatalf("partition broken: end %d, total %d", prev, total)
		}
	})
}

// FuzzAllToAll checks the exchange for arbitrary chip counts and
// block sizes.
func FuzzAllToAll(f *testing.F) {
	var ip Interp
	f.Add(uint8(4), uint8(3), uint64(1))
	f.Add(uint8(2), uint8(1), uint64(9))
	f.Fuzz(func(t *testing.T, pRaw, blocksRaw uint8, seed uint64) {
		p := int(pRaw%10) + 2
		n := (int(blocksRaw%16) + 1) * p
		chips := make([]int, p)
		for i := range chips {
			chips[i] = 100 + i
		}
		sched, err := AllToAll("fuzz", chips, n, 4, false)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		st := NewState(chips, 2*n, nil)
		full := Range{Lo: 0, Hi: n}
		fill := func(i, j, el int) float64 { return float64(i*131 + j*17 + el) }
		for i, chip := range chips {
			for j := 0; j < p; j++ {
				block := full.Sub(j, p)
				for el := block.Lo; el < block.Hi; el++ {
					st[chip][el] = fill(i, j, el-block.Lo)
				}
			}
		}
		if err := ip.Execute(st, sched); err != nil {
			t.Fatalf("execute: %v", err)
		}
		if err := CheckAllToAll(st, chips, n, fill); err != nil {
			t.Fatal(err)
		}
	})
}
