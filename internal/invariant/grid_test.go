package invariant

import (
	"fmt"
	"slices"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// establishRandom establishes circuits of the given width between
// seeded random chip pairs until want are live or attempts run out.
func establishRandom(tb testing.TB, a *route.Allocator, r *rng.Rand, want, width int) {
	tb.Helper()
	chips := a.Rack().NumChips()
	for tries := 0; a.NumCircuits() < want && tries < 20*want; tries++ {
		req := route.Request{A: r.Intn(chips), B: r.Intn(chips), Width: width}
		if req.A != req.B {
			_, _ = a.Establish(req, 0)
		}
	}
	if a.NumCircuits() < want/2 {
		tb.Fatalf("only %d of %d circuits established", a.NumCircuits(), want)
	}
}

// offGrid is the test's own statement of which references the
// disjointness grids cannot hold.
func offGrid(rack *wafer.Rack, c *route.Circuit) bool {
	cfg := rack.Config()
	for _, s := range c.Segments {
		lanes, positions := cfg.Rows, cfg.Cols
		if s.Ref.Orient == wafer.Vertical {
			lanes, positions = cfg.Cols, cfg.Rows
		}
		if s.Wafer < 0 || s.Wafer >= rack.NumWafers() || s.Ref.Lane < 0 || s.Ref.Lane >= lanes ||
			s.Ref.Bus < 0 || s.Ref.Bus >= cfg.BusesPerLane ||
			s.Ref.Span.Lo < 0 || s.Ref.Span.Lo > s.Ref.Span.Hi || s.Ref.Span.Hi >= positions {
			return true
		}
	}
	for _, f := range c.Fibers {
		if f.Trunk < 0 || f.Trunk >= rack.NumTrunks() || f.Row < 0 || f.Row >= cfg.Rows ||
			f.Fiber < 0 || f.Fiber >= cfg.FibersPerEdge {
			return true
		}
	}
	return false
}

// gridCorruptions rewrite circuit records in place, behind the
// allocator's back. Each picks its victims from cs with r and reports
// false when they do not suit it (a fiber-only cross-wafer circuit has
// no segment, a same-wafer one no fiber).
var gridCorruptions = []struct {
	name    string
	corrupt func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool
}{
	{"shared span cell on one bus", func(r *rng.Rand, _ *wafer.Rack, cs []*route.Circuit) bool {
		src, dst := cs[r.Intn(len(cs))], cs[r.Intn(len(cs))]
		if src == dst || len(src.Segments) == 0 || len(dst.Segments) == 0 {
			return false
		}
		s := src.Segments[r.Intn(len(src.Segments))]
		// Overlap on a single position somewhere inside the span.
		pos := s.Ref.Span.Lo + r.Intn(s.Ref.Span.Hi-s.Ref.Span.Lo+1)
		s.Ref.Span = wafer.Interval{Lo: pos, Hi: pos}
		dst.Segments[r.Intn(len(dst.Segments))] = s
		return true
	}},
	{"adjacent span on one bus", func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool {
		src, dst := cs[r.Intn(len(cs))], cs[r.Intn(len(cs))]
		if src == dst || len(src.Segments) == 0 || len(dst.Segments) == 0 {
			return false
		}
		s := src.Segments[r.Intn(len(src.Segments))]
		limit := rack.Config().Cols
		if s.Ref.Orient == wafer.Vertical {
			limit = rack.Config().Rows
		}
		if s.Ref.Span.Hi+1 >= limit {
			return false
		}
		s.Ref.Span = wafer.Interval{Lo: s.Ref.Span.Hi + 1, Hi: s.Ref.Span.Hi + 1}
		dst.Segments[r.Intn(len(dst.Segments))] = s
		return true
	}},
	{"shared fiber", func(r *rng.Rand, _ *wafer.Rack, cs []*route.Circuit) bool {
		src, dst := cs[r.Intn(len(cs))], cs[r.Intn(len(cs))]
		if src == dst || len(src.Fibers) == 0 || len(dst.Fibers) == 0 {
			return false
		}
		dst.Fibers[r.Intn(len(dst.Fibers))] = src.Fibers[r.Intn(len(src.Fibers))]
		return true
	}},
	{"circuit overlapping itself", func(r *rng.Rand, _ *wafer.Rack, cs []*route.Circuit) bool {
		c := cs[r.Intn(len(cs))]
		if len(c.Segments) == 0 {
			return false
		}
		c.Segments = append(c.Segments, c.Segments[r.Intn(len(c.Segments))])
		if len(c.Fibers) > 0 {
			c.Fibers = append(c.Fibers, c.Fibers[0])
		}
		return true
	}},
	{"bus out of range", func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool {
		c := cs[r.Intn(len(cs))]
		if len(c.Segments) == 0 {
			return false
		}
		c.Segments[r.Intn(len(c.Segments))].Ref.Bus = []int{-1, rack.Config().BusesPerLane}[r.Intn(2)]
		return true
	}},
	{"lane out of range", func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool {
		c := cs[r.Intn(len(cs))]
		if len(c.Segments) == 0 {
			return false
		}
		s := &c.Segments[r.Intn(len(c.Segments))]
		lanes := rack.Config().Rows
		if s.Ref.Orient == wafer.Vertical {
			lanes = rack.Config().Cols
		}
		s.Ref.Lane = []int{-1, lanes}[r.Intn(2)]
		return true
	}},
	{"position out of range", func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool {
		c := cs[r.Intn(len(cs))]
		if len(c.Segments) == 0 {
			return false
		}
		s := &c.Segments[r.Intn(len(c.Segments))]
		positions := rack.Config().Cols
		if s.Ref.Orient == wafer.Vertical {
			positions = rack.Config().Rows
		}
		if r.Intn(2) == 0 {
			s.Ref.Span.Lo = -1
		} else {
			s.Ref.Span.Hi = positions
		}
		return true
	}},
	{"fiber out of range", func(r *rng.Rand, rack *wafer.Rack, cs []*route.Circuit) bool {
		c := cs[r.Intn(len(cs))]
		if len(c.Fibers) == 0 {
			return false
		}
		f := &c.Fibers[r.Intn(len(c.Fibers))]
		cfg := rack.Config()
		switch r.Intn(3) {
		case 0:
			f.Trunk = rack.NumTrunks()
		case 1:
			f.Row = -1
		default:
			f.Fiber = cfg.FibersPerEdge
		}
		return true
	}},
}

// TestDisjointnessMatchesPairwiseOracle is the differential test of
// the stamp grids: over seeded circuit sets with up to three in-place
// corruptions each, circuit-disjointness must report something exactly
// when the O(n²) SharesResources oracle finds a sharing pair or some
// reference lies off the grid, and every pair it names must really
// share a resource.
func TestDisjointnessMatchesPairwiseOracle(t *testing.T) {
	flagged := 0
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2+r.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		a := route.NewAllocator(rack, nil)
		establishRandom(t, a, r, 10+r.Intn(60), 1+r.Intn(4))
		cs := a.Circuits()
		var applied []string
		for n := r.Intn(4); len(applied) < n; {
			tc := gridCorruptions[r.Intn(len(gridCorruptions))]
			if tc.corrupt(r, rack, cs) {
				applied = append(applied, tc.name)
			}
		}

		sharing, off := false, false
		for i, c := range cs {
			off = off || offGrid(rack, c)
			for _, o := range cs[i+1:] {
				sharing = sharing || c.SharesResources(o)
			}
		}
		var sh shadow
		sh.rebuild(a)
		verdict := slices.Clone(sh.found[invDisjoint])
		if got, want := len(verdict) > 0, sharing || off; got != want {
			t.Fatalf("seed %d after %v: verdict %v, oracle sharing=%v off-grid=%v", seed, applied, verdict, sharing, off)
		}
		for _, d := range verdict {
			var x, y int
			if _, err := fmt.Sscanf(d, "circuits %d and %d share a bus segment or fiber", &x, &y); err != nil {
				continue
			}
			cx, okx := a.CircuitByID(x)
			cy, oky := a.CircuitByID(y)
			if !okx || !oky || x >= y || !cx.SharesResources(cy) {
				t.Fatalf("seed %d after %v: reported pair %d/%d does not share a resource", seed, applied, x, y)
			}
		}
		if len(verdict) > 0 {
			flagged++
		}
	}
	// Both verdicts must occur often for the comparison to mean anything.
	if flagged < 50 || flagged > 250 {
		t.Fatalf("%d of 300 seeded sets flagged; the corruption mix no longer exercises both verdicts", flagged)
	}
}

// TestDisjointnessSurvivesEpochWrap runs a pass across the epoch
// counter's wrap. The grids must be cleared there: the pass after the
// wrap reuses the first pass's epoch number, and that pass's stamps —
// left by circuits released since, under cells new circuits hold —
// would read as collisions.
func TestDisjointnessSurvivesEpochWrap(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	establishRandom(t, a, rng.New(5), 40, 2)
	var sh shadow
	sh.rebuild(a)
	if v := sh.collect("first"); len(v) != 0 || sh.epoch != 1 {
		t.Fatalf("first pass: epoch %d, violations %v", sh.epoch, v)
	}
	for _, c := range a.Circuits() {
		a.Release(c)
	}
	establishRandom(t, a, rng.New(6), 40, 2)
	sh.epoch = epochLimit - 1
	sh.rebuild(a)
	if v := sh.collect("wrap"); len(v) != 0 || sh.epoch != 1 {
		t.Fatalf("pass after the wrap: epoch %d, violations %v", sh.epoch, v)
	}
}

// BenchmarkAuditPass measures one full audit pass over the controller
// campaign's steady state: two wafers, about 110 width-2 circuits and
// one degraded segment. A warm pass must not allocate. The paper
// metrics pin the fixture (live circuits, bus segments, fibers); ns/audit
// is the pass's cost.
func BenchmarkAuditPass(b *testing.B) {
	a := auditPassFixture(b)
	aud := Attach(a, Off)
	if vs := aud.Audit("warm"); len(vs) != 0 {
		b.Fatalf("fixture violates invariants: %v", vs)
	}
	segments, fibers := 0, 0
	for _, c := range a.Circuits() {
		segments += len(c.Segments)
		fibers += len(c.Fibers)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud.Audit("bench")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/audit")
	b.ReportMetric(float64(a.NumCircuits()), "circuits")
	b.ReportMetric(float64(segments), "segments")
	b.ReportMetric(float64(fibers), "fibers")
}
