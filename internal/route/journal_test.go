package route

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/wafer"
)

// TestJournalRecordsFootprint checks the journal describes exactly the
// last top-level mutation: the circuit an establish added and the
// switches it programmed, the circuit a release removed, what failed
// commit attempts touched before rolling back, and which operations
// are wide.
func TestJournalRecordsFootprint(t *testing.T) {
	a := NewAllocator(twoWaferRack(t), nil)
	c, err := a.Establish(Request{A: 1, B: 40, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := a.Journal()
	if !slices.Equal(j.Added, []*Circuit{c}) || len(j.Removed) != 0 || j.Wide {
		t.Fatalf("establish journal: added %v removed %v wide %v", j.Added, j.Removed, j.Wide)
	}
	if len(j.Buses) != 0 || len(j.Fibers) != 0 || len(j.Chips) != 0 {
		t.Fatalf("establish journal lists rolled-back resources: buses %v fibers %v chips %v", j.Buses, j.Fibers, j.Chips)
	}
	var want []SwitchRef
	for _, se := range a.AppendCircuitSwitches(nil, c) {
		want = append(want, SwitchRef{Chip: se.Chip, Switch: se.Switch})
	}
	if !slices.Equal(j.Switches, want) {
		t.Fatalf("establish journal switches %v, circuit needs %v", j.Switches, want)
	}

	a.Release(c)
	if !slices.Equal(j.Removed, []*Circuit{c}) || len(j.Added) != 0 || len(j.Switches) != 0 ||
		len(j.Buses) != 0 || len(j.Fibers) != 0 || len(j.Chips) != 0 {
		t.Fatalf("release journal: %+v", *j)
	}

	// Every commit attempt reserves chip 2, then finds chip 3 full and
	// rolls back: the journal keeps what the attempts touched.
	if err := a.Rack().TileOf(3).Reserve(a.Rack().Config().LasersPerTile); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Establish(Request{A: 2, B: 3, Width: 1}, 0); err == nil {
		t.Fatal("establish onto a full chip succeeded")
	}
	if len(j.Added) != 0 || len(j.Buses) == 0 || !slices.Contains(j.Chips, 2) {
		t.Fatalf("failed establish journal: %+v", *j)
	}

	for name, op := range map[string]func(){
		"apply-fault":       func() { _, _ = a.ApplyFault(chaos.Fault{Class: chaos.MZIStuck, Chip: 9, Switch: 2}) },
		"repair-fault":      func() { _ = a.RepairFault(chaos.Fault{Class: chaos.MZIStuck, Chip: 9, Switch: 2}) },
		"fail-fiber-row":    func() { a.FailFiberRow(0, 1) },
		"restore-fiber-row": func() { a.RestoreFiberRow(0, 1) },
	} {
		op()
		if !j.Wide {
			t.Fatalf("%s journal is not wide", name)
		}
	}
	if _, err := a.Establish(Request{A: 4, B: 6, Width: 1}, 0); err != nil || j.Wide {
		t.Fatalf("establish after a wide op: err %v, wide %v", err, j.Wide)
	}
}

// TestCommitHealthErrorsFormatLazily pins commit's lazily formatted
// health failures to the text and errors.Is behaviour of the
// fmt.Errorf calls they replace: byte-identical messages, no wrapped
// sentinel, and an Establish that runs out of plans still wraps
// ErrNoPath around the last of them.
func TestCommitHealthErrorsFormatLazily(t *testing.T) {
	st := planStep{wafer: 1, o: wafer.Vertical, lane: 3, span: wafer.Interval{Lo: 0, Hi: 2}}
	severed := error(&severedError{step: st})
	if got, want := severed.Error(), fmt.Sprintf("route: %s lane %d span [%d,%d] on wafer %d crosses a severed segment",
		st.o, st.lane, st.span.Lo, st.span.Hi, st.wafer); got != want {
		t.Fatalf("severed error %q, want %q", got, want)
	}
	stuck := error(&stuckSwitchError{row: 2, col: 5, sw: 1})
	if got, want := stuck.Error(), fmt.Sprintf("route: tile (%d,%d) switch %d is stuck", 2, 5, 1); got != want {
		t.Fatalf("stuck error %q, want %q", got, want)
	}
	for _, err := range []error{severed, stuck} {
		if errors.Unwrap(err) != nil || errors.Is(err, ErrNoPath) || errors.Is(err, ErrEndpointFailed) {
			t.Fatalf("%q wraps a sentinel", err)
		}
	}

	a := NewAllocator(twoWaferRack(t), nil)
	if err := a.Rack().TileOf(0).FailSwitch(0); err != nil {
		t.Fatal(err)
	}
	_, err := a.Establish(Request{A: 0, B: 1, Width: 1}, 0)
	if want := "route: no feasible circuit path: chips 0<->1: route: tile (0,0) switch 0 is stuck"; err == nil || err.Error() != want {
		t.Fatalf("establish through a stuck endpoint switch: %v, want %q", err, want)
	}
	var cause *stuckSwitchError
	if !errors.Is(err, ErrNoPath) || !errors.As(err, &cause) {
		t.Fatalf("%v does not wrap ErrNoPath and the stuck switch", err)
	}
}
