package route

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// establishSentinels are the sentinels an establish failure can wrap.
var establishSentinels = []error{
	ErrNoPath, ErrEndpointFailed,
	wafer.ErrFibersExhausted, wafer.ErrLasersExhausted, wafer.ErrPortsExhausted,
}

// sameOutcome fails unless two establish outcomes agree: the same
// circuit (ID, endpoints, width, path, link report, times), or the
// same error text wrapping the same sentinels.
func sameOutcome(t *testing.T, what string, got *Circuit, gotErr error, want *Circuit, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: pruned err = %v, exhaustive err = %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: pruned error %q, exhaustive %q", what, gotErr, wantErr)
		}
		for _, s := range establishSentinels {
			if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
				t.Fatalf("%s: errors.Is(%v) is %v pruned, %v exhaustive", what, s, errors.Is(gotErr, s), errors.Is(wantErr, s))
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pruned circuit %+v, exhaustive %+v", what, got, want)
	}
}

// circuitIDs lists the circuits' IDs.
func circuitIDs(cs []*Circuit) []int {
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

// TestPrunedEstablishMatchesExhaustive drives a pruning allocator
// through churn — establishes on a filling fabric, releases, faults of
// every class, re-routes and repairs — and replays every step on a
// clone that tries every candidate plan. After each step both must
// have produced the same circuit or the same error, and must encode
// the same snapshot bytes. The budget-checking arm covers the stitch
// draws of infeasible attempts, the packing arm the occupancy-ranked
// row order.
func TestPrunedEstablishMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name         string
		seed         uint64
		pack, budget bool
	}{
		{"seed 1", 1, false, false},
		{"seed 2", 2, false, false},
		{"seed 3", 3, false, false},
		{"seed 4 budget", 4, false, true},
		{"seed 5 packing", 5, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAllocator(twoWaferRack(t), rng.New(tc.seed))
			a.PackFibers, a.CheckBudget = tc.pack, tc.budget
			ref := a.Clone()
			pruned := 0
			churn(t, a, tc.seed, 1500, func(s churnStep) {
				switch s.op {
				case "establish":
					if ref.prunes(s.req) {
						pruned++
					}
					got, err := ref.establishExhaustive(s.req, s.now)
					sameOutcome(t, "establish", s.got, s.err, got, err)
				case "release", "double release":
					if c, ok := ref.CircuitByID(s.c.ID); ok {
						ref.Release(c)
					}
				case "apply-fault":
					torn, err := ref.ApplyFault(s.fault)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(circuitIDs(torn), circuitIDs(s.torn)) {
						t.Fatalf("%v tore down %v pruned, %v exhaustive", s.fault, circuitIDs(s.torn), circuitIDs(torn))
					}
				case "reestablish":
					got, err := ref.reestablishExhaustive(s.c, s.now)
					sameOutcome(t, "reestablish", s.got, s.err, got, err)
				case "repair-fault":
					if err := ref.RepairFault(s.fault); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(encodeAllocator(a), encodeAllocator(ref)) {
					t.Fatalf("after %s the pruned and exhaustive snapshots differ", s.op)
				}
			})
			if pruned == 0 {
				t.Fatal("churn never reached a state where Establish prunes")
			}
		})
	}
}

// fillFiberRow takes every fiber of one trunk row through the
// allocator's own bookkeeping, as committed circuits would.
func fillFiberRow(t *testing.T, a *Allocator, trunk, row int) {
	t.Helper()
	for i := 0; i < a.rack.Config().FibersPerEdge; i++ {
		ref, err := a.rack.AllocFiber(trunk, row)
		if err != nil {
			t.Fatal(err)
		}
		a.trackFiber(ref, +1)
	}
}

// TestDoomedEstablishAttemptsOnlyLastPlan makes every candidate plan of
// a cross-wafer establish fail, once at the far endpoint and once at
// the fiber trunk. Only the last plan may be attempted: the journal of
// the failed establish holds exactly that plan's buses, the fiber and
// near-endpoint reservation it got to, and nothing of any other plan.
func TestDoomedEstablishAttemptsOnlyLastPlan(t *testing.T) {
	req := Request{A: 0, B: 40, Width: 1}
	for _, tc := range []struct {
		name     string
		doom     func(t *testing.T, a *Allocator)
		sentinel error
		// reached is whether the attempt got past the fibers to the
		// endpoint reservations.
		reached bool
	}{
		{"full endpoint", func(t *testing.T, a *Allocator) {
			if err := a.rack.TileOf(req.B).Reserve(a.rack.Config().LasersPerTile); err != nil {
				t.Fatal(err)
			}
		}, wafer.ErrLasersExhausted, true},
		{"full fiber rows", func(t *testing.T, a *Allocator) {
			for row := 0; row < a.rack.Config().Rows; row++ {
				fillFiberRow(t, a, 0, row)
			}
		}, wafer.ErrFibersExhausted, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAllocator(twoWaferRack(t), nil)
			tc.doom(t, a)
			plans := a.candidatePlans(req.A, req.B)
			if len(plans) < 2 {
				t.Fatalf("fixture has %d candidate plans, want several", len(plans))
			}
			last := plans[len(plans)-1]
			steps, trunks, row := slices.Clone(last.steps), slices.Clone(last.trunks), last.fiberRow

			_, err := a.Establish(req, 0)
			if !errors.Is(err, ErrNoPath) || !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want ErrNoPath wrapping %v", err, tc.sentinel)
			}
			j := a.Journal()
			if len(j.Buses) != len(steps) {
				t.Fatalf("journal holds %d buses, the last plan has %d steps", len(j.Buses), len(steps))
			}
			for i, s := range j.Buses {
				st := steps[i]
				if s.Wafer != st.wafer || s.Ref.Orient != st.o || s.Ref.Lane != st.lane || s.Ref.Span != st.span {
					t.Fatalf("journal bus %d is %v on wafer %d, the last plan's step is %+v", i, s.Ref, s.Wafer, st)
				}
			}
			wantFibers, wantChips := 0, []int(nil)
			if tc.reached {
				wantFibers, wantChips = len(trunks), []int{req.A}
			}
			if len(j.Fibers) != wantFibers {
				t.Fatalf("journal holds fibers %v, want %d", j.Fibers, wantFibers)
			}
			for i, f := range j.Fibers {
				if f.Trunk != trunks[i] || f.Row != row {
					t.Fatalf("journal fiber %v is not on the last plan's row %d of trunk %d", f, row, trunks[i])
				}
			}
			if !slices.Equal(j.Chips, wantChips) {
				t.Fatalf("journal chips %v, want %v", j.Chips, wantChips)
			}
		})
	}
}

// TestNoPathErrorUnwrapAllocatesNothing pins that classifying an
// establish failure — errors.Is walks Unwrap once per call — costs no
// allocation.
func TestNoPathErrorUnwrapAllocatesNothing(t *testing.T) {
	a := NewAllocator(twoWaferRack(t), nil)
	if err := a.rack.TileOf(40).Reserve(a.rack.Config().LasersPerTile); err != nil {
		t.Fatal(err)
	}
	_, err := a.Establish(Request{A: 0, B: 40, Width: 1}, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if !errors.Is(err, ErrNoPath) || !errors.Is(err, wafer.ErrLasersExhausted) || errors.Is(err, ErrEndpointFailed) {
			t.Fatalf("err = %v, want ErrNoPath wrapping ErrLasersExhausted", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("errors.Is on the no-path error allocates %v times, want 0", allocs)
	}
}

// encodeFiberRows builds the snapshot of a fresh two-wafer allocator
// (deterministic loss model, no circuits, cold plan cache) whose
// fiber-row records are used and failed, written field by field the
// way EncodeState writes them.
func encodeFiberRows(t *testing.T, used [][3]int, failed [][2]int) []byte {
	t.Helper()
	var e snapshot.Encoder
	NewAllocator(twoWaferRack(t), nil).Rack().EncodeState(&e)
	e.Bool(false) // no loss stream
	e.Int(0)      // next circuit ID
	e.Len(0)      // circuits
	e.Len(len(used))
	for _, u := range used {
		e.Int(u[0])
		e.Int(u[1])
		e.Int(u[2])
	}
	e.Len(len(failed))
	for _, f := range failed {
		e.Int(f[0])
		e.Int(f[1])
	}
	e.U64(0) // plan-cache hits
	e.U64(0) // plan-cache misses
	e.Len(0) // valid plan-cache pairs
	return e.Bytes()
}

// TestRestoreRejectsOffGridFiberRows feeds RestoreState fiber-row
// records for rows the rack does not have; each must fail as
// corruption. The on-grid control shows the hand-built bytes are
// otherwise a valid snapshot.
func TestRestoreRejectsOffGridFiberRows(t *testing.T) {
	a := NewAllocator(twoWaferRack(t), nil)
	if err := a.RestoreState(snapshot.NewDecoder(encodeFiberRows(t, [][3]int{{0, 3, 2}}, [][2]int{{0, 1}}))); err != nil {
		t.Fatalf("on-grid rows: %v", err)
	}
	if a.FiberRowUsage(0, 3) != 2 || !a.RowFailed(0, 1) {
		t.Fatalf("restored usage %d and failed %v, want 2 and true", a.FiberRowUsage(0, 3), a.RowFailed(0, 1))
	}
	for _, tc := range []struct {
		name   string
		used   [][3]int
		failed [][2]int
	}{
		{"used row past the trunks", [][3]int{{1, 0, 1}}, nil},
		{"used row past the rows", [][3]int{{0, 4, 1}}, nil},
		{"failed row before the rows", nil, [][2]int{{0, -1}}},
		{"failed row before the trunks", nil, [][2]int{{-1, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := NewAllocator(twoWaferRack(t), nil).RestoreState(snapshot.NewDecoder(encodeFiberRows(t, tc.used, tc.failed)))
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestOffGridFiberRowIsIgnored cuts and restores a trunk row the rack
// does not have: nothing routes over it, so nothing is torn down or
// marked, and the row reads as unused and healthy.
func TestOffGridFiberRowIsIgnored(t *testing.T) {
	a := NewAllocator(twoWaferRack(t), nil)
	if _, err := a.Establish(Request{A: 0, B: 40, Width: 1}, 0); err != nil {
		t.Fatal(err)
	}
	for _, tr := range [][2]int{{0, 4}, {1, 0}, {-1, 2}} {
		if torn := a.FailFiberRow(tr[0], tr[1]); len(torn) != 0 {
			t.Fatalf("cutting off-grid row %v tore down %v", tr, circuitIDs(torn))
		}
		if a.RowFailed(tr[0], tr[1]) || a.FiberRowUsage(tr[0], tr[1]) != 0 {
			t.Fatalf("off-grid row %v reads as failed or in use", tr)
		}
		a.RestoreFiberRow(tr[0], tr[1])
	}
	if a.SpareFullRows(1) != 0 {
		t.Fatalf("trunk 1 of a two-wafer chain has %d spare rows", a.SpareFullRows(1))
	}
	if a.NumCircuits() != 1 {
		t.Fatalf("%d circuits live after off-grid cuts, want 1", a.NumCircuits())
	}
	if _, err := a.Establish(Request{A: 1, B: 41, Width: 1}, unit.Microsecond); err != nil {
		t.Fatal(err)
	}
}
