// Package invariant is a cross-layer runtime auditor for the shared
// optical state of a rack: it re-derives, from first principles, what
// the wafer hardware occupancy, the route allocator's mirrors, and the
// established circuit table must agree on, and reports structured
// Violations when they do not. The checks are the executable form of
// DESIGN.md's disjointness and conservation invariants — no
// double-booked lasers, waveguide buses or fiber lanes; endpoint
// reservations balancing the sum of circuit widths; every active
// circuit within its loss budget and traversing only healthy
// components; switch programming consistent with circuit segments.
//
// The auditor attaches to a route.Allocator via its audit hook and
// checks every completed top-level mutation in one of two ways. A
// delta check reads the allocator's journal of what the mutation
// changed — circuits established and released, buses, fiber rows,
// chips and switches touched — and checks just that footprint against
// a shadow of what the live circuits imply, in time proportional to
// the changed circuit. A full pass re-derives everything from the live
// state, rebuilds the shadow, and is the ground truth: Sampled mode
// runs it periodically and after every fault-class operation, Paranoid
// mode after every mutation, confirming each delta verdict against it.
// The auditor never panics and never mutates the state it audits:
// violations are recorded on the auditor (and tallied globally for
// test harnesses) so the simulation can keep running while the defect
// is reported.
package invariant

import (
	"errors"
	"fmt"
)

// ErrViolated is the sentinel wrapped by every error the auditor
// surfaces; errors.Is(err, ErrViolated) identifies invariant failures
// from cmd/ down.
var ErrViolated = errors.New("invariant: state invariant violated")

// Mode selects how an attached auditor checks each mutation.
type Mode int

// Audit modes. Every mode but Off checks every completed top-level
// mutation (Establish, Release, ApplyFault, RepairFault, Reestablish,
// fiber-row fail/restore, decentralized commits).
const (
	// Off disables auditing entirely; the hook is not even attached.
	Off Mode = iota
	// Sampled delta-checks every mutation's footprint and runs the
	// full pass on the first mutation after Attach or a restore, after
	// every wide operation (fault application and repair, fiber-row
	// failure and restoration) and every DefaultStride-th mutation. A
	// corruption inside a mutation's footprint is reported by that
	// mutation; one outside it (state rewritten behind the allocator's
	// back) within DefaultStride mutations.
	Sampled
	// Paranoid runs the delta check and the full pass after every
	// mutation. A delta violation naming an invariant the full pass
	// does not also name is itself reported, as an auditor-agreement
	// violation, so every Paranoid run doubles as a differential test
	// of the delta check. All tests run in this mode, except that
	// cmd/lightpath-sim's full-scale campaign replays drop to Sampled
	// under -race to stay inside the race detector's time budget.
	Paranoid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Sampled:
		return "sampled"
	case Paranoid:
		return "paranoid"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Violation is one structured invariant failure: which registered
// invariant broke, after which mutation, and a human-readable detail
// naming the offending component or circuit.
type Violation struct {
	Invariant string
	Op        string
	Detail    string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	if v.Op == "" {
		return v.Invariant + ": " + v.Detail
	}
	return fmt.Sprintf("%s (after %s): %s", v.Invariant, v.Op, v.Detail)
}

// Registry indices: shadow findings are collected per invariant and
// reported in this order.
const (
	invDisjoint = iota
	invBus
	invFiber
	invEndpoint
	invBudget
	invSwitch
	numInvariants
)

// registry names and documents the invariants, ordered from structural
// to semantic. The checks themselves live in one place, the shadow
// (shadow.go): its per-circuit add covers every invariant a single
// circuit can break, and the full pass's totals and the delta check's
// touched-resource comparisons cover the conservation sums.
var registry = [numInvariants]struct {
	// name is the stable identifier used in Violations and DESIGN.md.
	name string
	// doc states what must hold, in one sentence.
	doc string
}{
	invDisjoint: {
		name: "circuit-disjointness",
		doc:  "established circuits have positive width, terminate at chips of the rack, hold only bus positions and fibers inside the rack's grid, and share no bus segment or fiber pairwise",
	},
	invBus: {
		name: "bus-conservation",
		doc:  "every circuit segment's exact span is allocated on its bus, every bus holds as many intervals as circuit segments lie on it, and a circuit releases exactly the segments it was established with",
	},
	invFiber: {
		name: "fiber-conservation",
		doc:  "every circuit fiber is occupied in the rack, each trunk row's occupied fibers and the allocator's per-row mirror equal the circuits' fibers there, and a circuit releases exactly the fibers it was established with",
	},
	invEndpoint: {
		name: "endpoint-conservation",
		doc:  "each tile's reserved lasers and SerDes ports equal the sum of circuit widths and endpoint count terminating there, and never exceed capacity",
	},
	invBudget: {
		name: "budget-health",
		doc:  "active circuits terminate at healthy chips, cross no severed span or failed fiber row, settle one reconfiguration latency after establishment, and (when budget checking is on) still close their optical budget",
	},
	invSwitch: {
		name: "switch-consistency",
		doc:  "the hardware switch ports match the programming each circuit's segments require (endpoint switch 0 to port 0, turn switch 1 to port 1)",
	},
}
