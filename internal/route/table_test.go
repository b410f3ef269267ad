package route

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// assertIDOrdered fails unless the circuit table lists the live
// circuits in strictly ascending ID order, agrees with NumCircuits, and
// finds each one through CircuitByID as the allocator's own pointer.
func assertIDOrdered(t *testing.T, a *Allocator, step string) {
	t.Helper()
	cs := a.AppendCircuits(nil)
	if len(cs) != a.NumCircuits() {
		t.Fatalf("after %s: AppendCircuits lists %d circuits, NumCircuits says %d", step, len(cs), a.NumCircuits())
	}
	for i, c := range cs {
		if i > 0 && cs[i-1].ID >= c.ID {
			t.Fatalf("after %s: circuit %d follows %d", step, c.ID, cs[i-1].ID)
		}
		if got, ok := a.CircuitByID(c.ID); !ok || got != c {
			t.Fatalf("after %s: CircuitByID(%d) = %p, %v; want %p", step, c.ID, got, ok, c)
		}
	}
	if _, ok := a.CircuitByID(-1); ok {
		t.Fatalf("after %s: CircuitByID(-1) found a circuit", step)
	}
}

// randomFault draws a fault of any class against the rack's geometry.
func randomFault(r *rng.Rand, a *Allocator) chaos.Fault {
	cfg := a.Rack().Config()
	f := chaos.Fault{Class: chaos.Class(r.Intn(chaos.NumClasses)), Chip: r.Intn(a.Rack().NumChips())}
	switch f.Class {
	case chaos.MZIStuck:
		f.Switch = r.Intn(wafer.SwitchesPerTile)
	case chaos.WaveguideLoss:
		f.Wafer = r.Intn(a.Rack().NumWafers())
		f.Horizontal = r.Intn(2) == 0
		if f.Horizontal {
			f.Lane, f.Pos = r.Intn(cfg.Rows), r.Intn(cfg.Cols)
		} else {
			f.Lane, f.Pos = r.Intn(cfg.Cols), r.Intn(cfg.Rows)
		}
		// Zero, marginal and severing losses alike.
		f.ExtraLossDB = []float64{0, 0.5, 3, 25}[r.Intn(4)]
	case chaos.FiberCut:
		f.Trunk, f.Row = r.Intn(a.Rack().NumTrunks()), r.Intn(cfg.Rows)
	}
	return f
}

// churnStep describes one mutation churn made and what came of it, so
// a check can replay the mutation on another allocator.
type churnStep struct {
	op  string
	now unit.Seconds
	// req is what establish asked for; c is the circuit released, or
	// the one a fault tore down that reestablish re-routes.
	req Request
	c   *Circuit
	// fault is what apply-fault injected or repair-fault repaired.
	fault chaos.Fault
	// got and err are what establish or reestablish returned; torn is
	// what apply-fault tore down.
	got  *Circuit
	err  error
	torn []*Circuit
}

// churn drives a seeded mix of every mutation that touches the circuit
// table — establish, release, double release, ApplyFault, Reestablish
// of the circuits a fault tore down, and RepairFault — calling check
// after each one.
func churn(t *testing.T, a *Allocator, seed uint64, steps int, check func(churnStep)) {
	t.Helper()
	r := rng.New(seed)
	chips := a.Rack().NumChips()
	var live []*Circuit
	var faults []chaos.Fault
	drop := func(c *Circuit) {
		if i := slices.Index(live, c); i >= 0 {
			live = slices.Delete(live, i, i+1)
		}
	}
	for step := 0; step < steps; step++ {
		now := unit.Seconds(step) * unit.Microsecond
		switch k := r.Intn(20); {
		case k < 10:
			req := Request{A: r.Intn(chips), B: r.Intn(chips), Width: 1 + r.Intn(4)}
			if req.A == req.B {
				continue
			}
			c, err := a.Establish(req, now)
			if err == nil {
				live = append(live, c)
			}
			check(churnStep{op: "establish", now: now, req: req, got: c, err: err})
		case k < 16:
			if len(live) == 0 {
				continue
			}
			c := live[r.Intn(len(live))]
			drop(c)
			a.Release(c)
			check(churnStep{op: "release", now: now, c: c})
			if r.Intn(3) == 0 {
				a.Release(c)
				check(churnStep{op: "double release", now: now, c: c})
			}
		case k < 18:
			f := randomFault(r, a)
			torn, err := a.ApplyFault(f)
			if err != nil {
				t.Fatalf("fault %v: %v", f, err)
			}
			faults = append(faults, f)
			check(churnStep{op: "apply-fault", now: now, fault: f, torn: torn})
			for _, c := range torn {
				drop(c)
				nc, _, err := a.Reestablish(c, now)
				if err == nil {
					live = append(live, nc)
				}
				check(churnStep{op: "reestablish", now: now, c: c, got: nc, err: err})
			}
		default:
			if len(faults) == 0 {
				continue
			}
			f := faults[0]
			faults = faults[1:]
			if err := a.RepairFault(f); err != nil {
				t.Fatalf("repair %v: %v", f, err)
			}
			check(churnStep{op: "repair-fault", now: now, fault: f})
		}
	}
}

// TestCircuitTableStaysIDOrdered checks the table's ordering contract
// across every mutation, and across Clone and RestoreState.
func TestCircuitTableStaysIDOrdered(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		a := NewAllocator(twoWaferRack(t), rng.New(seed))
		churn(t, a, seed, 600, func(s churnStep) { assertIDOrdered(t, a, s.op) })
		if a.NumCircuits() == 0 {
			t.Fatalf("seed %d: churn left no circuits to check", seed)
		}
		clone := a.Clone()
		assertIDOrdered(t, clone, "clone")
		restored := NewAllocator(twoWaferRack(t), rng.New(0))
		if err := restored.RestoreState(snapshot.NewDecoder(encodeAllocator(a))); err != nil {
			t.Fatal(err)
		}
		assertIDOrdered(t, restored, "restore")
		// Both copies keep their order under further churn.
		churn(t, clone, seed+100, 200, func(s churnStep) { assertIDOrdered(t, clone, "clone "+s.op) })
		churn(t, restored, seed+100, 200, func(s churnStep) { assertIDOrdered(t, restored, "restored "+s.op) })
	}
}

// TestRestoreRejectsMisorderedCircuitIDs hand-builds snapshots whose
// circuit table is out of order or repeats an ID, by renumbering live
// circuits before encoding; both must fail as corruption.
func TestRestoreRejectsMisorderedCircuitIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  func(first, second int) (int, int)
	}{
		{"out of order", func(first, second int) (int, int) { return second, first }},
		{"duplicate", func(first, _ int) (int, int) { return first, first }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := scrambledAllocator(t)
			cs := a.Circuits()
			if len(cs) < 2 {
				t.Fatal("fixture needs two circuits")
			}
			cs[0].ID, cs[1].ID = tc.ids(cs[0].ID, cs[1].ID)
			restored := NewAllocator(twoWaferRack(t), rng.New(0))
			err := restored.RestoreState(snapshot.NewDecoder(encodeAllocator(a)))
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// churnedStateSHA256 is the SHA-256 of the snapshot of a seed-7
// allocator after 800 churn steps. The state holds live circuits with
// a hole-ridden ID space, degraded segments (the rack's part of the
// snapshot) and a cut fiber row. The snapshot encodes live state only
// — no trailing empty buses, no fiber rows in use by nothing — so the
// hash is the same whether Establish tries every candidate plan or
// prunes the ones that cannot commit: the exhaustive allocator with
// only the live-state encoding produces these bytes too.
const churnedStateSHA256 = "767f616e93f44723f09b7daa174447c2c17a55bcb71b2a8ed019ff1d11e89edf"

func TestChurnedEncodeStatePinned(t *testing.T) {
	a := NewAllocator(twoWaferRack(t), rng.New(7))
	churn(t, a, 7, 800, func(churnStep) {})
	if a.NumCircuits() == 0 || a.Rack().Health().DegradedSegments == 0 {
		t.Fatal("churn left no circuits or no degraded segment for the pin to cover")
	}
	sum := sha256.Sum256(encodeAllocator(a))
	if got := hex.EncodeToString(sum[:]); got != churnedStateSHA256 {
		t.Fatalf("churned snapshot SHA-256 = %s, want %s", got, churnedStateSHA256)
	}
}
