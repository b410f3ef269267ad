package collective

import (
	"testing"
	"testing/quick"

	"lightpath/internal/torus"
)

// slice3 returns the paper's Slice-3 (4x4x1, Table 2) on a TPU rack.
func slice3() (*torus.Torus, *torus.Slice) {
	t := torus.New(torus.Shape{4, 4, 4})
	return t, &torus.Slice{Name: "Slice-3", Origin: torus.Coord{0, 0, 2}, Shape: torus.Shape{4, 4, 1}}
}

// slice1 returns the paper's Slice-1 (4x2x1, Table 1).
func slice1() (*torus.Torus, *torus.Slice) {
	t := torus.New(torus.Shape{4, 4, 4})
	return t, &torus.Slice{Name: "Slice-1", Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}}
}

func TestActiveDims(t *testing.T) {
	_, s := slice3()
	dims := ActiveDims(s)
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 1 {
		t.Fatalf("active dims = %v, want [0 1]", dims)
	}
}

func TestBucketReduceScatterCorrect(t *testing.T) {
	var ip Interp
	tor, s := slice3()
	n := 96
	sched, owned, err := BucketReduceScatter("rs", tor, s, []int{0, 1}, n, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two phases of 3 steps each on a 4x4.
	if sched.NumSteps() != 6 {
		t.Fatalf("steps = %d, want 6", sched.NumSteps())
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(5))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckReduceScatter(st, owned, ref); err != nil {
		t.Fatal(err)
	}
	// Each chip ends owning ~N/16 of the buffer.
	for chip, r := range owned {
		if r.Len() != n/16 {
			t.Fatalf("chip %d owns %d elements, want %d", chip, r.Len(), n/16)
		}
	}
}

func TestBucketAllReduceCorrect(t *testing.T) {
	var ip Interp
	tor, s := slice3()
	n := 64
	sched, err := BucketAllReduce("ar", tor, s, []int{0, 1}, n, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// D RS phases + D AG phases: (3+3) + (3+3) = 12 steps.
	if sched.NumSteps() != 12 {
		t.Fatalf("steps = %d, want 12", sched.NumSteps())
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(13))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckAllReduce(st, chips, ref); err != nil {
		t.Fatal(err)
	}
}

func TestBucketAllReduce3D(t *testing.T) {
	var ip Interp
	// A full rack cube: 4x4x4, all three dimensions active.
	tor := torus.New(torus.Shape{4, 4, 4})
	s := &torus.Slice{Name: "cube", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 4}}
	n := 128
	sched, err := BucketAllReduce("cube-ar", tor, s, []int{0, 1, 2}, n, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(17))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckAllReduce(st, chips, ref); err != nil {
		t.Fatal(err)
	}
}

func TestBucketSkipsExtent1Dims(t *testing.T) {
	tor, s := slice3()
	// Dim order includes the extent-1 Z dimension: skipped silently.
	sched, err := BucketAllReduce("z", tor, s, []int{0, 1, 2}, 32, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumSteps() != 12 {
		t.Fatalf("steps = %d, want 12 (Z contributes none)", sched.NumSteps())
	}
}

func TestBucketDimOrderValidation(t *testing.T) {
	tor, s := slice3()
	if _, err := BucketAllReduce("e", tor, s, nil, 32, 4, BucketOptions{}); err == nil {
		t.Error("empty dim order accepted")
	}
	if _, err := BucketAllReduce("e", tor, s, []int{0, 0}, 32, 4, BucketOptions{}); err == nil {
		t.Error("repeated dim accepted")
	}
	if _, err := BucketAllReduce("e", tor, s, []int{5}, 32, 4, BucketOptions{}); err == nil {
		t.Error("out-of-range dim accepted")
	}
}

func TestBucketUnrealizableRing(t *testing.T) {
	tor := torus.New(torus.Shape{4, 4, 4})
	s := &torus.Slice{Name: "bad", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{3, 2, 1}}
	if _, err := BucketAllReduce("bad", tor, s, []int{0, 1}, 32, 4, BucketOptions{}); err == nil {
		t.Error("extent-3-of-4 ring accepted")
	}
}

func TestBucketReconfigMarks(t *testing.T) {
	tor, s := slice3()
	sched, err := BucketAllReduce("opt", tor, s, []int{0, 1}, 64, 4, BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	// One reconfiguration per dimension phase: 2 RS + 2 AG = 4.
	if got := sched.Reconfigs(); got != 4 {
		t.Fatalf("reconfigs = %d, want 4", got)
	}
	// Electrical schedule has none.
	sched2, _ := BucketAllReduce("elec", tor, s, []int{0, 1}, 64, 4, BucketOptions{})
	if sched2.Reconfigs() != 0 {
		t.Fatal("electrical schedule marked reconfigs")
	}
}

func TestBucketTransferDims(t *testing.T) {
	tor, s := slice3()
	sched, _, err := BucketReduceScatter("dims", tor, s, []int{0, 1}, 64, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// First 3 steps are the X phase, next 3 the Y phase.
	for si, step := range sched.Steps {
		wantDim := 0
		if si >= 3 {
			wantDim = 1
		}
		for _, tr := range step.Transfers {
			if tr.Dim != wantDim {
				t.Fatalf("step %d transfer dim = %d, want %d", si, tr.Dim, wantDim)
			}
		}
	}
}

func TestSimultaneousBucketAllReduceCorrect(t *testing.T) {
	var ip Interp
	tor, s := slice3()
	n := 96
	sched, err := SimultaneousBucketAllReduce("sim", tor, s, n, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(23))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckAllReduce(st, chips, ref); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousBucketUsesAllDimsConcurrently(t *testing.T) {
	// The §4.1 point of the variant: in the first step, transfers run
	// along every active dimension at once.
	tor, s := slice3()
	sched, err := SimultaneousBucketAllReduce("sim", tor, s, 96, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dims := map[int]bool{}
	for _, tr := range sched.Steps[0].Transfers {
		dims[tr.Dim] = true
	}
	if !dims[0] || !dims[1] {
		t.Fatalf("first step dims = %v, want both 0 and 1", dims)
	}
}

func TestSimultaneousBucketNoActiveDims(t *testing.T) {
	tor := torus.New(torus.Shape{4, 4, 4})
	s := &torus.Slice{Name: "one", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{1, 1, 1}}
	if _, err := SimultaneousBucketAllReduce("x", tor, s, 8, 4, BucketOptions{}); err == nil {
		t.Error("no-dimension slice accepted")
	}
}

func TestSnakeRingAllReduceCorrect(t *testing.T) {
	var ip Interp
	tor, s := slice1()
	n := 80
	sched, err := SnakeRingAllReduce("snake", tor, s, n, 4, BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	// 8 chips: 7 RS + 7 AG steps, one circuit establishment.
	if sched.NumSteps() != 14 {
		t.Fatalf("steps = %d, want 14", sched.NumSteps())
	}
	if sched.Reconfigs() != 1 {
		t.Fatalf("reconfigs = %d, want 1", sched.Reconfigs())
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(31))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckAllReduce(st, chips, ref); err != nil {
		t.Fatal(err)
	}
}

func TestSnakeRingReduceScatterCorrect(t *testing.T) {
	var ip Interp
	tor, s := slice1()
	n := 64
	sched, owned, err := SnakeRingReduceScatter("snake-rs", tor, s, n, 4, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumSteps() != 7 {
		t.Fatalf("steps = %d, want 7 (Table 1's 7 alpha)", sched.NumSteps())
	}
	chips := s.Chips(tor)
	st := NewState(chips, n, fillRandom(37))
	ref := ReduceAcrossInto(nil, st, chips, n)
	if err := ip.Execute(st, sched); err != nil {
		t.Fatal(err)
	}
	if err := CheckReduceScatter(st, owned, ref); err != nil {
		t.Fatal(err)
	}
}

func TestSnakeRingUnavailable(t *testing.T) {
	tor := torus.New(torus.Shape{4, 4, 4})
	s := &torus.Slice{Name: "3d", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 2}}
	if _, err := SnakeRingAllReduce("x", tor, s, 8, 4, BucketOptions{}); err == nil {
		t.Error("3-D snake ring accepted")
	}
}

// Property test: bucket AllReduce is correct for random sub-slices and
// buffer sizes, including non-divisible ones.
func TestBucketAllReduceProperty(t *testing.T) {
	var ip Interp
	tor := torus.New(torus.Shape{4, 4, 4})
	f := func(ox, oy, oz, sx, sy, nRaw uint8, seed uint64) bool {
		// Extents from {1, 2, 4} to stay realizable.
		pick := func(v uint8) int { return []int{1, 2, 4}[v%3] }
		shape := torus.Shape{pick(sx), pick(sy), 1}
		if shape.Size() < 2 {
			return true // nothing to reduce
		}
		origin := torus.Coord{int(ox % 4), int(oy % 4), int(oz % 4)}
		s := &torus.Slice{Name: "prop", Origin: origin, Shape: shape}
		n := int(nRaw%100) + 1
		sched, err := BucketAllReduce("prop", tor, s, []int{0, 1, 2}, n, 4, BucketOptions{})
		if err != nil {
			return false
		}
		chips := s.Chips(tor)
		st := NewState(chips, n, fillRandom(seed))
		ref := ReduceAcrossInto(nil, st, chips, n)
		if err := ip.Execute(st, sched); err != nil {
			return false
		}
		return CheckAllReduce(st, chips, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
