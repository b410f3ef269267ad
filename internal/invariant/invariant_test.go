package invariant

import (
	"errors"
	"strings"
	"testing"

	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// auditFixture builds a two-wafer rack with a few established
// circuits and a detached auditor (no hook): the corruption tests
// drive Audit explicitly so each one observes exactly the state it
// sabotaged.
func auditFixture(t *testing.T) (*route.Allocator, *Auditor) {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	for _, req := range []route.Request{
		{A: 0, B: 5, Width: 2},
		{A: 1, B: 40, Width: 3}, // cross-wafer: exercises fibers
		{A: 9, B: 12, Width: 1},
	} {
		if _, err := a.Establish(req, 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(ResetGlobal)
	return a, Attach(a, Off)
}

// firstCircuit returns a deterministic established circuit.
func firstCircuit(t *testing.T, a *route.Allocator) *route.Circuit {
	t.Helper()
	cs := a.Circuits()
	if len(cs) == 0 {
		t.Fatal("fixture has no circuits")
	}
	min := cs[0]
	for _, c := range cs {
		if c.ID < min.ID {
			min = c
		}
	}
	return min
}

func TestAuditCleanStateFindsNothing(t *testing.T) {
	_, aud := auditFixture(t)
	if vs := aud.Audit("fixture"); len(vs) != 0 {
		t.Fatalf("clean state reported violations: %v", vs)
	}
	if aud.Count() != 0 || aud.Err() != nil {
		t.Fatalf("count %d err %v on clean state", aud.Count(), aud.Err())
	}
}

// corruptions sabotages the shared state one invariant at a time,
// entirely behind the allocator's back, and names the registered
// invariant that must catch it.
var corruptions = []struct {
	name      string
	invariant string
	sabotage  func(t *testing.T, a *route.Allocator)
}{
	{
		name:      "zeroed width",
		invariant: "circuit-disjointness",
		sabotage: func(t *testing.T, a *route.Allocator) {
			firstCircuit(t, a).Width = 0
		},
	},
	{
		name:      "dropped segment",
		invariant: "bus-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			c := firstCircuit(t, a)
			c.Segments = c.Segments[:len(c.Segments)-1]
		},
	},
	{
		name:      "dropped fiber",
		invariant: "fiber-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			for _, c := range a.Circuits() {
				if len(c.Fibers) > 0 {
					c.Fibers = c.Fibers[:len(c.Fibers)-1]
					return
				}
			}
			t.Fatal("fixture has no cross-wafer circuit")
		},
	},
	{
		name:      "phantom laser reservation",
		invariant: "endpoint-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			if err := a.Rack().TileOf(20).Reserve(1); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name:      "chip killed behind the allocator",
		invariant: "budget-health",
		sabotage: func(t *testing.T, a *route.Allocator) {
			a.Rack().TileOf(firstCircuit(t, a).A).FailChip()
		},
	},
	{
		name:      "switch reprogrammed behind the allocator",
		invariant: "switch-consistency",
		sabotage: func(t *testing.T, a *route.Allocator) {
			se := a.AppendCircuitSwitches(nil, firstCircuit(t, a))[0]
			if err := se.Tile.Switches[se.Switch].Program(se.Port+1, 0); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// TestAuditCatchesEveryCorruption is the acceptance check for the
// auditor itself: each registered invariant must turn its own kind of
// sabotage into a non-empty, descriptive, correctly attributed
// Violation — and Err must wrap ErrViolated so errors.Is works at any
// distance from the corruption.
func TestAuditCatchesEveryCorruption(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			a, aud := auditFixture(t)
			tc.sabotage(t, a)
			vs := aud.Audit("sabotage")
			if len(vs) == 0 {
				t.Fatal("corruption went unnoticed")
			}
			found := false
			for _, v := range vs {
				if v.Invariant == tc.invariant {
					found = true
					if v.Detail == "" {
						t.Fatalf("%s violation has empty detail", v.Invariant)
					}
					if !strings.Contains(v.String(), "circuit") && !strings.Contains(v.String(), "chip") &&
						!strings.Contains(v.String(), "trunk") && !strings.Contains(v.String(), "tile") {
						t.Fatalf("violation does not name a component: %q", v.String())
					}
					if v.Op != "sabotage" {
						t.Fatalf("violation op = %q", v.Op)
					}
				}
			}
			if !found {
				t.Fatalf("no %s violation among %v", tc.invariant, vs)
			}
			err := aud.Err()
			if !errors.Is(err, ErrViolated) {
				t.Fatalf("Err() = %v, does not wrap ErrViolated", err)
			}
			if GlobalCount() == 0 {
				t.Fatal("violation missing from the process-wide tally")
			}
		})
	}
}

// TestParanoidHookFiresOnEveryMutation attaches a Paranoid auditor and
// counts registry passes across a mutation mix, including the
// compound ones (ApplyFault, Reestablish) that must audit once at the
// top level — never mid-mutation on inconsistent state.
func TestParanoidHookFiresOnEveryMutation(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	aud := Attach(a, Paranoid)
	c, err := a.Establish(route.Request{A: 0, B: 5, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aud.Audits() != 1 {
		t.Fatalf("establish ran %d audits, want 1", aud.Audits())
	}
	a.Release(c)
	if aud.Audits() != 2 {
		t.Fatalf("release ran %d more audits, want 1", aud.Audits()-1)
	}
	// A double release is a no-op and must not count as a mutation.
	a.Release(c)
	if aud.Audits() != 2 {
		t.Fatal("no-op double release triggered an audit")
	}
	if aud.Count() != 0 {
		t.Fatalf("clean mutations produced %d violations", aud.Count())
	}
}

// TestSampledModeStrides checks the cheap mode audits every
// DefaultStride-th mutation instead of all of them.
func TestSampledModeStrides(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	aud := Attach(a, Sampled)
	for i := 0; i < 2*DefaultStride; i++ {
		c, err := a.Establish(route.Request{A: 0, B: 5, Width: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.Release(c)
	}
	if aud.Mutations() != 4*DefaultStride {
		t.Fatalf("observed %d mutations, want %d", aud.Mutations(), 4*DefaultStride)
	}
	if aud.Audits() != 4 {
		t.Fatalf("sampled mode ran %d audits over %d mutations, want 4", aud.Audits(), 4*DefaultStride)
	}
}

// TestRegistryAndModeStrings pins the documented surface: six named,
// documented invariants and printable modes.
func TestRegistryAndModeStrings(t *testing.T) {
	if len(registry) != 6 {
		t.Fatalf("registry has %d invariants, want 6", len(registry))
	}
	seen := map[string]bool{}
	for _, inv := range registry {
		if inv.name == "" || inv.doc == "" || inv.check == nil {
			t.Fatalf("invariant %q incompletely registered", inv.name)
		}
		if seen[inv.name] {
			t.Fatalf("duplicate invariant name %q", inv.name)
		}
		seen[inv.name] = true
	}
	for m, want := range map[Mode]string{Off: "off", Sampled: "sampled", Paranoid: "paranoid", Mode(9): "Mode(9)"} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestDefaultModeRoundTrip covers the process-wide switch core
// consults when building fabrics.
func TestDefaultModeRoundTrip(t *testing.T) {
	prev := SetDefaultMode(Paranoid)
	defer SetDefaultMode(prev)
	if DefaultMode() != Paranoid {
		t.Fatal("default mode did not stick")
	}
}
