package invariant

import (
	"slices"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// TestDeltaCatchesEveryCorruption sabotages the state as
// TestAuditCatchesEveryCorruption does, then runs a mutation whose
// footprint covers the sabotage under a Sampled auditor. The delta
// check of that mutation — not a full pass — must report it.
func TestDeltaCatchesEveryCorruption(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			a, aud := auditFixture(t, Sampled)
			if vs := aud.Audit("warm"); len(vs) != 0 {
				t.Fatalf("fixture violates invariants: %v", vs)
			}
			tc.sabotage(t, a)
			passes := aud.FullPasses()
			tc.follow(t, a)
			if aud.Mutations() != 1 || aud.FullPasses() != passes {
				t.Fatalf("follow-up ran %d mutations and %d full passes, want 1 and 0", aud.Mutations(), aud.FullPasses()-passes)
			}
			vs := aud.Violations()
			if !slices.ContainsFunc(vs, func(v Violation) bool { return v.Invariant == tc.deltaInvariant }) {
				t.Fatalf("delta check reported no %s violation: %v", tc.deltaInvariant, vs)
			}
			for _, v := range vs {
				if (v.Op != "release" && v.Op != "establish") || v.Detail == "" {
					t.Fatalf("violation %q not attributed to the follow-up", v)
				}
			}
		})
	}
}

// TestDeltaChecksRolledBackAttempts plants an extra interval on a bus
// and an extra fiber in a trunk row behind the allocator's back, then
// makes an establish allocate there and roll back: the far endpoint is
// full, so no circuit results. With a full endpoint only the last
// candidate plan is attempted (route's attempt pruning), so the plants
// sit on that plan's resources: the horizontal step along row 3 of the
// same-wafer V-H-V detour through row 3, and the fiber row 3 of the
// cross-wafer plan that tries row 3 last. The journal's rolled-back
// resources must bring both under the delta check.
func TestDeltaChecksRolledBackAttempts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		plant     func(t *testing.T, rack *wafer.Rack)
		b         int
		invariant string
	}{
		{"bus", func(t *testing.T, rack *wafer.Rack) {
			if _, err := rack.Wafer(0).AllocBus(wafer.Horizontal, 3, wafer.Interval{Lo: 5, Hi: 5}); err != nil {
				t.Fatal(err)
			}
		}, 1, "bus-conservation"},
		{"fiber", func(t *testing.T, rack *wafer.Rack) {
			if _, err := rack.AllocFiber(0, 3); err != nil {
				t.Fatal(err)
			}
		}, 33, "fiber-conservation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			a := route.NewAllocator(rack, nil)
			aud := Attach(a, Sampled)
			aud.Audit("warm")
			t.Cleanup(ResetGlobal)
			tc.plant(t, rack)
			if err := rack.TileOf(tc.b).Reserve(rack.Config().LasersPerTile); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Establish(route.Request{A: 0, B: tc.b, Width: 1}, 0); err == nil {
				t.Fatal("establish onto a full chip succeeded")
			}
			vs := aud.Violations()
			if aud.FullPasses() != 1 || !slices.ContainsFunc(vs, func(v Violation) bool { return v.Invariant == tc.invariant }) {
				t.Fatalf("%d full passes, delta check reported %v, want a %s violation", aud.FullPasses(), vs, tc.invariant)
			}
		})
	}
}

// TestParanoidReportsDeltaDisagreement breaks the shadow itself, so a
// delta check reports an imbalance the hardware does not have: a
// Paranoid auditor must report that as an auditor-agreement violation
// next to the (empty) full-pass verdict.
func TestParanoidReportsDeltaDisagreement(t *testing.T) {
	a, aud := auditFixture(t, Paranoid)
	if vs := aud.Audit("warm"); len(vs) != 0 {
		t.Fatalf("fixture violates invariants: %v", vs)
	}
	aud.sh.chipTallies[5].lasers++
	a.Release(circuitBetween(t, a, 0, 5))
	vs := aud.Violations()
	if len(vs) != 1 || vs[0].Invariant != agreement || !strings.Contains(vs[0].Detail, "endpoint-conservation") {
		t.Fatalf("Paranoid auditor reported %v, want one %s violation about endpoint-conservation", vs, agreement)
	}
}

// invariantNames returns the sorted set of invariants vs name.
func invariantNames(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		if !slices.Contains(out, v.Invariant) {
			out = append(out, v.Invariant)
		}
	}
	slices.Sort(out)
	return out
}

// footprintCorruptions sabotage a live circuit c, or what it holds,
// behind the allocator's back and then release c, so the release's
// footprint covers the damage. Each reports false when c does not suit
// it.
var footprintCorruptions = []struct {
	name    string
	corrupt func(r *rng.Rand, a *route.Allocator, c *route.Circuit) bool
}{
	{"narrowed width", func(_ *rng.Rand, _ *route.Allocator, c *route.Circuit) bool {
		c.Width--
		return true
	}},
	{"dropped segment", func(_ *rng.Rand, _ *route.Allocator, c *route.Circuit) bool {
		if len(c.Segments) == 0 {
			return false
		}
		c.Segments = c.Segments[:len(c.Segments)-1]
		return true
	}},
	{"dropped fiber", func(_ *rng.Rand, _ *route.Allocator, c *route.Circuit) bool {
		if len(c.Fibers) == 0 {
			return false
		}
		c.Fibers = c.Fibers[:len(c.Fibers)-1]
		return true
	}},
	{"segment of another circuit", func(r *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		cs := a.Circuits()
		o := cs[r.Intn(len(cs))]
		if o == c || len(o.Segments) == 0 || len(c.Segments) == 0 {
			return false
		}
		c.Segments[r.Intn(len(c.Segments))] = o.Segments[r.Intn(len(o.Segments))]
		return true
	}},
	{"phantom span on a held bus", func(r *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		if len(c.Segments) == 0 {
			return false
		}
		seg := c.Segments[r.Intn(len(c.Segments))]
		w, ref := a.Rack().Wafer(seg.Wafer), seg.Ref
		pos := ref.Span.Hi + 1
		if pos >= map[wafer.Orient]int{wafer.Horizontal: w.Config().Cols, wafer.Vertical: w.Config().Rows}[ref.Orient] {
			if pos = ref.Span.Lo - 1; pos < 0 {
				return false
			}
		}
		// First-fit fills every lower bus with pos free before reaching
		// the circuit's; keep the span that lands there, free the rest.
		var fillers []wafer.BusRef
		defer func() {
			for _, f := range fillers {
				w.FreeBus(f)
			}
		}()
		for {
			got, err := w.AllocBus(ref.Orient, ref.Lane, wafer.Interval{Lo: pos, Hi: pos})
			if err != nil {
				return false
			}
			if got.Bus == ref.Bus {
				return true
			}
			fillers = append(fillers, got)
			if got.Bus > ref.Bus {
				return false
			}
		}
	}},
	{"phantom reservation", func(_ *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		return a.Rack().TileOf(c.A).Reserve(1) == nil
	}},
	{"burned-out lasers", func(r *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		a.Rack().TileOf(c.B).FailLasers(1 + r.Intn(8))
		return true
	}},
	{"killed chip", func(_ *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		a.Rack().TileOf(c.A).FailChip()
		return true
	}},
	{"reprogrammed switch", func(r *rng.Rand, a *route.Allocator, c *route.Circuit) bool {
		ses := a.AppendCircuitSwitches(nil, c)
		se := ses[r.Intn(len(ses))]
		return se.Tile.Switches[se.Switch].Program((se.Port+1+r.Intn(2))%wafer.SwitchDegree, 0) == nil
	}},
}

// TestDeltaMatchesFullPass is the differential test of the delta
// check against the full pass it abbreviates. Each seed churns a rack
// through establishes, releases, re-establishes, faults and repairs —
// where the delta check must find nothing, like the full pass — and
// then sabotages the state inside the next mutation's footprint, where
// the delta check must name exactly the invariants the full pass over
// the same state names.
func TestDeltaMatchesFullPass(t *testing.T) {
	const seeds = 240
	flagged, deltaChecks := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2+r.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		a := route.NewAllocator(rack, rng.New(seed))
		a.CheckBudget = r.Intn(2) == 0
		aud := Attach(a, Off)
		aud.Audit("start")
		var delta, full []Violation
		checked, clean := false, true
		a.SetAuditHook(func(op string) {
			delta, checked = nil, false
			if j := a.Journal(); !j.Wide {
				if !aud.sh.apply(a, j) {
					t.Fatalf("seed %d %s: the shadow lost a released circuit", seed, op)
				}
				delta, checked = aud.sh.collect(op), true
				deltaChecks++
			}
			full = aud.full(op)
			if clean && (len(delta) > 0 || len(full) > 0) {
				t.Fatalf("seed %d: clean %s reported delta %v, full %v", seed, op, delta, full)
			}
		})

		cfg, chips := rack.Config(), rack.NumChips()
		var rates chaos.Rates
		for c := range rates.MTBF {
			rates.MTBF[c] = 10 * unit.Millisecond
		}
		eng, err := chaos.NewEngine(seed, chaos.Components{
			Chips: chips, SwitchesPerTile: wafer.SwitchesPerTile, Wafers: rack.NumWafers(),
			Rows: cfg.Rows, Cols: cfg.Cols, Trunks: rack.NumTrunks(),
		}, rates)
		if err != nil {
			t.Fatal(err)
		}
		faults := eng.Schedule(1.0)
		var applied []chaos.Fault
		for step := 0; step < 60 || a.NumCircuits() < 4; step++ {
			live := a.Circuits()
			switch k := r.Intn(20); {
			case k < 9 || len(live) == 0:
				if req := (route.Request{A: r.Intn(chips), B: r.Intn(chips), Width: 1 + r.Intn(4)}); req.A != req.B {
					_, _ = a.Establish(req, unit.Seconds(step)*unit.Microsecond)
				}
			case k < 13:
				a.Release(live[r.Intn(len(live))])
			case k < 15:
				c := live[r.Intn(len(live))]
				a.Release(c)
				_, _, _ = a.Reestablish(c, 0)
			case k < 18 && len(faults) > 0:
				broken, err := a.ApplyFault(faults[0])
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, faults[0], err)
				}
				applied, faults = append(applied, faults[0]), faults[1:]
				for _, c := range broken {
					_, _, _ = a.Reestablish(c, 0)
				}
			case len(applied) > 0:
				i := r.Intn(len(applied))
				if err := a.RepairFault(applied[i]); err != nil {
					t.Fatalf("seed %d repair %v: %v", seed, applied[i], err)
				}
				applied = slices.Delete(applied, i, i+1)
			}
			if step > 400 {
				t.Fatalf("seed %d: churn cannot keep 4 circuits live", seed)
			}
		}

		// Sabotage one live circuit and release it.
		live := a.Circuits()
		var (
			c    *route.Circuit
			name string
		)
		for c == nil {
			tc := footprintCorruptions[r.Intn(len(footprintCorruptions))]
			if cand := live[r.Intn(len(live))]; tc.corrupt(r, a, cand) {
				c, name = cand, tc.name
			}
		}
		clean = false
		a.Release(c)
		if !checked {
			t.Fatalf("seed %d %s: the release ran no delta check", seed, name)
		}
		if got, want := invariantNames(delta), invariantNames(full); !slices.Equal(got, want) {
			t.Fatalf("seed %d %s: delta check names %v, full pass %v\ndelta: %v\nfull: %v", seed, name, got, want, delta, full)
		}
		if len(full) > 0 {
			flagged++
		}
	}
	// Both verdicts must occur often for the comparison to mean anything.
	if flagged < seeds/2 || flagged == seeds {
		t.Fatalf("%d of %d sabotaged releases flagged; the corruption mix no longer exercises both verdicts", flagged, seeds)
	}
	if deltaChecks < 50*seeds {
		t.Fatalf("only %d delta checks over %d seeds", deltaChecks, seeds)
	}
}

// auditPassFixture is the controller campaign's steady state the audit
// benchmarks run over: two wafers, about 110 width-2 circuits and one
// degraded segment.
func auditPassFixture(tb testing.TB) *route.Allocator {
	tb.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	a := route.NewAllocator(rack, rng.New(2024))
	establishRandom(tb, a, rng.New(2024), 110, 2)
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.WaveguideLoss, Wafer: 0, Horizontal: true, Lane: 1, Pos: 3, ExtraLossDB: 1}); err != nil {
		tb.Fatal(err)
	}
	return a
}

// deltaPair is one establish and one release, replayed as delta
// checks without mutating anything: before is the fixture, after the
// fixture plus one circuit, and each journal is the footprint of the
// mutation leading into that state. The auditor's shadow starts in
// step with before and returns there after each pair.
type deltaPair struct {
	aud                   *Auditor
	before, after         *route.Allocator
	establish, releaseJnl route.Journal
}

func newDeltaPair(tb testing.TB) *deltaPair {
	tb.Helper()
	p := &deltaPair{before: auditPassFixture(tb)}
	p.after = p.before.Clone()
	r := rng.New(7)
	var c *route.Circuit
	for tries := 0; c == nil; tries++ {
		if tries == 100 {
			tb.Fatal("no circuit fits the fixture")
		}
		req := route.Request{A: r.Intn(32), B: 32 + r.Intn(32), Width: 2}
		c, _ = p.after.Establish(req, 0)
	}
	p.establish = copyJournal(p.after.Journal())
	released := p.after.Clone()
	rc, _ := released.CircuitByID(c.ID)
	released.Release(rc)
	p.releaseJnl = copyJournal(released.Journal())
	p.aud = Attach(p.before, Off)
	if vs := p.aud.Audit("warm"); len(vs) != 0 {
		tb.Fatalf("fixture violates invariants: %v", vs)
	}
	p.run(tb) // grows the grids to cover the new circuit
	return p
}

func copyJournal(j *route.Journal) route.Journal {
	return route.Journal{
		Added:    slices.Clone(j.Added),
		Removed:  slices.Clone(j.Removed),
		Buses:    slices.Clone(j.Buses),
		Fibers:   slices.Clone(j.Fibers),
		Chips:    slices.Clone(j.Chips),
		Switches: slices.Clone(j.Switches),
	}
}

// run delta-checks the establish, then the release.
func (p *deltaPair) run(tb testing.TB) {
	sh := &p.aud.sh
	if !sh.apply(p.after, &p.establish) || sh.collect("establish") != nil ||
		!sh.apply(p.before, &p.releaseJnl) || sh.collect("release") != nil {
		tb.Fatal("clean delta pair reported violations")
	}
}

// TestDeltaCheckAllocatesNothing holds a warm delta check to zero
// allocations.
func TestDeltaCheckAllocatesNothing(t *testing.T) {
	p := newDeltaPair(t)
	if n := testing.AllocsPerRun(100, func() { p.run(t) }); n != 0 {
		t.Fatalf("a warm establish+release delta pair allocates %v times", n)
	}
}

// BenchmarkAuditDelta measures the delta checks of one establish and
// one release over BenchmarkAuditPass's fixture; ns/pair is their cost
// together, to set against ns/audit there. A warm pair must not
// allocate.
func BenchmarkAuditDelta(b *testing.B) {
	p := newDeltaPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
	b.ReportMetric(float64(p.before.NumCircuits()), "circuits")
}
