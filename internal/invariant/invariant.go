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
// runs after every completed top-level mutation (Paranoid mode) or
// every few mutations (Sampled mode). It never panics and never
// mutates the state it audits: violations are recorded on the auditor
// (and tallied globally for test harnesses) so the simulation can
// keep running while the defect is reported.
package invariant

import (
	"errors"
	"fmt"
	"slices"

	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// ErrViolated is the sentinel wrapped by every error the auditor
// surfaces; errors.Is(err, ErrViolated) identifies invariant failures
// from cmd/ down.
var ErrViolated = errors.New("invariant: state invariant violated")

// Mode selects how often an attached auditor runs the full registry.
type Mode int

// Audit modes.
const (
	// Off disables auditing entirely; the hook is not even attached.
	Off Mode = iota
	// Sampled audits every DefaultStride-th mutation — cheap enough
	// for hot paths while still catching persistent corruption.
	Sampled
	// Paranoid audits after every completed top-level mutation
	// (Establish, Release, ApplyFault, RepairFault, Reestablish,
	// fiber-row fail/restore). All tests run in this mode, except that
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

// registry is the one check table, ordered from structural to semantic
// checks and immutable after init. Each check returns a detail string
// per failure; the Auditor stamps the invariant's name and the
// triggering operation onto the resulting Violations, and shares one
// scratch context across checks and audits (see Auditor.run).
var registry = []struct {
	// name is the stable identifier used in Violations and DESIGN.md.
	name string
	// doc states what must hold, in one sentence.
	doc string
	// check audits a consistent (not mid-mutation) allocator.
	check func(a *route.Allocator, ctx *checkCtx) []string
}{
	{
		name:  "circuit-disjointness",
		doc:   "established circuits have positive width, hold only bus positions and fibers inside the rack's grid, and share no bus segment or fiber pairwise",
		check: checkDisjointness,
	},
	{
		name:  "bus-conservation",
		doc:   "every circuit segment's exact span is allocated on its bus, and the rack's allocated span count equals the circuits' segment count",
		check: checkBusConservation,
	},
	{
		name:  "fiber-conservation",
		doc:   "every circuit fiber is occupied in the rack, the rack's occupied-fiber count equals the circuits' fiber count, and the allocator's per-row mirror matches",
		check: checkFiberConservation,
	},
	{
		name:  "endpoint-conservation",
		doc:   "each tile's reserved lasers and SerDes ports equal the sum of circuit widths and endpoint count terminating there, and never exceed capacity",
		check: checkEndpointConservation,
	},
	{
		name:  "budget-health",
		doc:   "active circuits terminate at healthy chips, cross no severed span or failed fiber row, settle one reconfiguration latency after establishment, and (when budget checking is on) still close their optical budget",
		check: checkBudgetHealth,
	},
	{
		name:  "switch-consistency",
		doc:   "the hardware switch ports match the programming each circuit's segments require (endpoint switch 0 to port 0, turn switch 1 to port 1)",
		check: checkSwitchConsistency,
	},
}

// checkCtx is the reusable working storage of one audit pass: the
// ID-ordered circuit list every check walks, the disjointness check's
// occupancy grids, and per-check tally buffers. An Auditor keeps one
// across audits so the steady-state audit loop stops allocating.
type checkCtx struct {
	circuits []*route.Circuit
	switches []route.SwitchExpectation
	// The audited rack's geometry, which sizes the grids.
	cfg            wafer.Config
	wafers, trunks int
	// epoch numbers the disjointness passes. A grid cell holding
	// epoch<<32 | slot+1 was claimed in this pass by circuits[slot];
	// any other value is stale, so the grids are cleared only when
	// epoch wraps.
	epoch uint32
	// busGrid holds one grid per (wafer, lane), the wafer's Rows
	// horizontal lanes then its Cols vertical ones, indexed
	// bus*positions+pos and grown to the highest bus claimed.
	busGrid [][]uint64
	// fiberGrid is indexed (trunk*Rows+row)*FibersPerEdge+fiber.
	fiberGrid []uint64
	// partners are the earlier circuits the current one collides with.
	partners []int
	perRow   []int
	lasers   []int
	ports    []int
}

// load refreshes the ID-ordered circuit list from the allocator.
func (ctx *checkCtx) load(a *route.Allocator) {
	ctx.circuits = a.AppendCircuits(ctx.circuits[:0])
}

// nextEpoch starts a disjointness pass over the rack's grids, sizing
// them on first use and clearing them when the epoch counter wraps.
func (ctx *checkCtx) nextEpoch(rack *wafer.Rack) {
	ctx.cfg, ctx.wafers, ctx.trunks = rack.Config(), rack.NumWafers(), rack.NumTrunks()
	if n := ctx.wafers * (ctx.cfg.Rows + ctx.cfg.Cols); len(ctx.busGrid) != n {
		ctx.busGrid = make([][]uint64, n)
	}
	if n := ctx.trunks * ctx.cfg.Rows * ctx.cfg.FibersPerEdge; len(ctx.fiberGrid) != n {
		ctx.fiberGrid = make([]uint64, n)
	}
	if ctx.epoch++; ctx.epoch == 0 {
		for _, g := range ctx.busGrid {
			clear(g)
		}
		clear(ctx.fiberGrid)
		ctx.epoch = 1
	}
}

// busCells returns the grid cells of the segment's span, or nil when
// the segment lies outside the rack's bus grid or its span is inverted.
func (ctx *checkCtx) busCells(s *route.Segment) []uint64 {
	r, rows := &s.Ref, ctx.cfg.Rows
	lane, lanes, positions := r.Lane, rows, ctx.cfg.Cols
	if r.Orient == wafer.Vertical {
		lane, lanes, positions = rows+r.Lane, ctx.cfg.Cols, rows
	} else if r.Orient != wafer.Horizontal {
		return nil
	}
	if s.Wafer < 0 || s.Wafer >= ctx.wafers || r.Lane < 0 || r.Lane >= lanes || r.Bus < 0 ||
		r.Bus >= ctx.cfg.BusesPerLane || r.Span.Lo < 0 || r.Span.Lo > r.Span.Hi || r.Span.Hi >= positions {
		return nil
	}
	g := &ctx.busGrid[s.Wafer*(rows+ctx.cfg.Cols)+lane]
	if need := (r.Bus + 1) * positions; len(*g) < need {
		*g = append(*g, make([]uint64, need-len(*g))...)
	}
	base := r.Bus * positions
	return (*g)[base+r.Span.Lo : base+r.Span.Hi+1]
}

// fiberCell returns the fiber's grid cell, or nil when the fiber lies
// outside the rack's trunks.
func (ctx *checkCtx) fiberCell(f wafer.FiberRef) *uint64 {
	rows, fibers := ctx.cfg.Rows, ctx.cfg.FibersPerEdge
	if f.Trunk < 0 || f.Trunk >= ctx.trunks || f.Row < 0 || f.Row >= rows || f.Fiber < 0 || f.Fiber >= fibers {
		return nil
	}
	return &ctx.fiberGrid[(f.Trunk*rows+f.Row)*fibers+f.Fiber]
}

// claim stamps cell for the current circuit or, when an earlier
// circuit already holds it this pass, records that circuit as a
// partner once. A circuit's own earlier stamp is no collision.
func (ctx *checkCtx) claim(cell *uint64, stamp uint64) {
	if prev := *cell; prev>>32 != stamp>>32 {
		*cell = stamp
	} else if slot := int(uint32(prev)) - 1; prev != stamp && !slices.Contains(ctx.partners, slot) {
		ctx.partners = append(ctx.partners, slot)
	}
}

// checkDisjointness verifies pairwise resource disjointness in one
// walk over the ID-ordered circuits: each circuit stamps every bus
// position of its spans and every fiber it holds into the occupancy
// grids, and a cell an earlier circuit stamped this pass is a shared
// resource. A segment or fiber outside the grids cannot be stamped and
// is reported instead of skipped.
func checkDisjointness(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	ctx.nextEpoch(a.Rack())
	for slot, c := range ctx.circuits {
		if c.Width < 1 {
			out = append(out, fmt.Sprintf("circuit %d has non-positive width %d", c.ID, c.Width))
		}
		stamp := uint64(ctx.epoch)<<32 | uint64(slot+1)
		ctx.partners = ctx.partners[:0]
		for k := range c.Segments {
			cells := ctx.busCells(&c.Segments[k])
			if cells == nil {
				out = append(out, fmt.Sprintf("circuit %d segment %v lies outside the rack's bus grid", c.ID, c.Segments[k]))
				continue
			}
			//lightpath:hotloop
			for i := range cells {
				ctx.claim(&cells[i], stamp)
			}
		}
		for _, f := range c.Fibers {
			if cell := ctx.fiberCell(f); cell != nil {
				ctx.claim(cell, stamp)
			} else {
				out = append(out, fmt.Sprintf("circuit %d fiber %v lies outside the rack's fiber grid", c.ID, f))
			}
		}
		// Earlier slots hold lower IDs, so each pair prints in order.
		for _, p := range ctx.partners {
			out = append(out, fmt.Sprintf("circuits %d and %d share a bus segment or fiber", ctx.circuits[p].ID, c.ID))
		}
	}
	return out
}

func checkBusConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	segments := 0
	for _, c := range ctx.circuits {
		segments += len(c.Segments)
		for _, s := range c.Segments {
			if !rack.Wafer(s.Wafer).BusSpanAllocated(s.Ref) {
				out = append(out, fmt.Sprintf("circuit %d segment %v is not allocated in the lane occupancy", c.ID, s))
			}
		}
	}
	allocated := 0
	for w := 0; w < rack.NumWafers(); w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != segments {
		out = append(out, fmt.Sprintf("rack holds %d allocated bus spans but circuits account for %d (leak or double free)", allocated, segments))
	}
	return out
}

func checkFiberConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	cfg := rack.Config()
	rows := cfg.Rows
	ctx.perRow = append(ctx.perRow[:0], make([]int, rack.NumTrunks()*rows)...)
	fibers := 0
	for _, c := range ctx.circuits {
		fibers += len(c.Fibers)
		for _, f := range c.Fibers {
			if !rack.FiberAllocated(f) {
				out = append(out, fmt.Sprintf("circuit %d fiber %v is not occupied in the rack", c.ID, f))
			}
			if f.Trunk >= 0 && f.Trunk < rack.NumTrunks() && f.Row >= 0 && f.Row < rows {
				ctx.perRow[f.Trunk*rows+f.Row]++
			}
		}
	}
	if used := rack.FibersInUse(); used != fibers {
		out = append(out, fmt.Sprintf("rack holds %d occupied fibers but circuits account for %d (leak or double free)", used, fibers))
	}
	for trunk := 0; trunk < rack.NumTrunks(); trunk++ {
		for row := 0; row < rows; row++ {
			if got, want := a.FiberRowUsage(trunk, row), ctx.perRow[trunk*rows+row]; got != want {
				out = append(out, fmt.Sprintf("allocator mirror says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want))
			}
		}
	}
	return out
}

func checkEndpointConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	chips := rack.NumChips()
	ctx.lasers = append(ctx.lasers[:0], make([]int, chips)...)
	ctx.ports = append(ctx.ports[:0], make([]int, chips)...)
	for _, c := range ctx.circuits {
		for _, ep := range [2]int{c.A, c.B} {
			if ep >= 0 && ep < chips {
				ctx.lasers[ep] += c.Width
				ctx.ports[ep]++
			}
		}
	}
	for chip := 0; chip < chips; chip++ {
		t := rack.TileOf(chip)
		if got := t.UsedLasers(); got != ctx.lasers[chip] {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) reserves %d lasers but circuit widths sum to %d", chip, t.Row, t.Col, got, ctx.lasers[chip]))
		}
		if got := t.UsedPorts(); got != ctx.ports[chip] {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) reserves %d SerDes ports but %d circuits terminate there", chip, t.Row, t.Col, got, ctx.ports[chip]))
		}
		if t.FreeLasers() < 0 {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free lasers", chip, t.Row, t.Col, t.FreeLasers()))
		}
		if t.FreePorts() < 0 {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free SerDes ports", chip, t.Row, t.Col, t.FreePorts()))
		}
	}
	return out
}

func checkBudgetHealth(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	for _, c := range ctx.circuits {
		for _, ep := range [2]int{c.A, c.B} {
			if !rack.TileOf(ep).ChipHealthy() {
				out = append(out, fmt.Sprintf("circuit %d terminates at failed chip %d", c.ID, ep))
			}
		}
		for _, s := range c.Segments {
			if rack.Wafer(s.Wafer).SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
				out = append(out, fmt.Sprintf("circuit %d crosses severed segment %v", c.ID, s))
			}
		}
		for _, f := range c.Fibers {
			if a.RowFailed(f.Trunk, f.Row) {
				out = append(out, fmt.Sprintf("circuit %d uses cut fiber row (trunk %d, row %d)", c.ID, f.Trunk, f.Row))
			}
		}
		if !unit.ApproxEqual(c.ReadyAt, c.EstablishedAt+phy.ReconfigLatency) {
			out = append(out, fmt.Sprintf("circuit %d ready at %v, not one reconfiguration latency after %v", c.ID, c.ReadyAt, c.EstablishedAt))
		}
		// Without budget checking the allocator legitimately admits
		// margin-negative circuits, so feasibility is only an invariant
		// when the allocator itself enforces it.
		if a.CheckBudget && !a.StillFeasible(c) {
			out = append(out, fmt.Sprintf("circuit %d no longer closes its optical budget (margin %v, degradation since establish exceeds it)", c.ID, c.Link.MarginDB))
		}
	}
	return out
}

func checkSwitchConsistency(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	for _, c := range ctx.circuits {
		ctx.switches = a.AppendCircuitSwitches(ctx.switches[:0], c)
		for _, se := range ctx.switches {
			if got := se.Tile.Switches[se.Switch].Port(); got != se.Port {
				out = append(out, fmt.Sprintf("circuit %d needs tile (%d,%d) switch %d on port %d, hardware says port %d",
					c.ID, se.Tile.Row, se.Tile.Col, se.Switch, se.Port, got))
			}
		}
	}
	return out
}
