package route

import (
	"errors"
	"fmt"
	"sort"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// ErrNoPath reports that no feasible, resource-disjoint path exists
// for a circuit request.
var ErrNoPath = errors.New("route: no feasible circuit path")

// ErrEndpointFailed reports a circuit request whose endpoint chip is
// failed hardware; no amount of re-pathfinding can help.
var ErrEndpointFailed = errors.New("route: circuit endpoint chip has failed")

// Allocator establishes circuits with a global view of the rack's
// waveguide and fiber occupancy (the "centralized controller" of the
// paper's §5).
type Allocator struct {
	rack *wafer.Rack
	loss *phy.LossModel
	// Budget is the optical link budget circuits are checked against
	// when CheckBudget is set.
	Budget phy.Budget
	// CheckBudget rejects circuits whose optical loss exceeds the
	// budget.
	CheckBudget bool
	// PackFibers selects trunk rows that are already partially used
	// before opening fresh rows, keeping whole rows free as spares
	// for fault tolerance (§5, "Minimizing fiber requirement for
	// fault tolerance"). When false, the row matching the source tile
	// is preferred (shortest path).
	PackFibers bool

	circuits map[int]*Circuit
	nextID   int
	// fibersUsed mirrors the rack's fiber occupancy per (trunk, row)
	// so the packing heuristic can rank rows cheaply.
	fibersUsed map[fiberRowKey]int
	// failedRows marks trunk rows taken out by fiber failures.
	failedRows map[fiberRowKey]bool

	// rowOrder[srcRow] is the precomputed non-packing fiber-row
	// preference order (source row first, then the rest ascending). It
	// is immutable after construction and shared by clones.
	rowOrder [][]int
	// auditHook, when set, runs after every completed top-level
	// mutation with the operation's name; mutDepth tracks nesting so
	// compound operations (ApplyFault releasing circuits, Establish
	// trying many commits) fire the hook once, when the state is
	// consistent again. Clones start with no hook — the attaching
	// layer decides per allocator.
	auditHook func(op string)
	mutDepth  int
	// scratch holds the buffers Establish reuses across calls so the
	// pathfinding hot path stops allocating per circuit. Nothing in it
	// survives a call; clones start with fresh (zero) scratch.
	scratch allocScratch
	// plans memoizes candidatePlans per chip pair, invalidated by the
	// fabric epoch (see plancache.go). Clones start cold.
	plans planCache
	// noPlanCache forces every Establish to re-derive plans from
	// scratch; the differential tests use it as the reference arm.
	noPlanCache bool
}

// allocScratch is the per-allocator reusable working storage of the
// Establish hot path. Every field is reset (length zero, capacity
// kept) at the start of the call that uses it.
type allocScratch struct {
	plans   []plan
	rowUses []rowUse
	rows    []int
	elems   []phy.LossElement
	uses    []switchUse
	segs    []Segment
	fibers  []wafer.FiberRef
}

// nextPlan appends an empty plan slot to the scratch, recycling the
// slot's steps/trunks capacity from earlier calls.
func (s *allocScratch) nextPlan() *plan {
	if len(s.plans) < cap(s.plans) {
		s.plans = s.plans[:len(s.plans)+1]
	} else {
		s.plans = append(s.plans, plan{})
	}
	p := &s.plans[len(s.plans)-1]
	p.steps = p.steps[:0]
	p.trunks = p.trunks[:0]
	p.fiberRow = 0
	p.turns = 0
	return p
}

// rowUse ranks a trunk row for the fiber-packing heuristic.
type rowUse struct{ row, used, free int }

type fiberRowKey struct{ trunk, row int }

// NewAllocator builds a centralized allocator over the rack. The
// stochastic stitch losses draw from r; a nil r uses mean losses.
func NewAllocator(rack *wafer.Rack, r *rng.Rand) *Allocator {
	a := &Allocator{
		rack:       rack,
		loss:       phy.NewLossModel(r),
		Budget:     phy.DefaultBudget(),
		circuits:   make(map[int]*Circuit),
		fibersUsed: make(map[fiberRowKey]int),
	}
	// Precompute the shortest-path fiber-row preference order for every
	// source row: it depends only on the wafer geometry, so computing it
	// per Establish call was pure allocation churn.
	rows := rack.Config().Rows
	a.rowOrder = make([][]int, rows)
	for srcRow := range a.rowOrder {
		order := make([]int, 0, rows)
		order = append(order, srcRow)
		for row := 0; row < rows; row++ {
			if row != srcRow {
				order = append(order, row)
			}
		}
		a.rowOrder[srcRow] = order
	}
	return a
}

// SetAuditHook registers fn to run after every completed top-level
// mutation of the allocator's shared optical state (Establish,
// Release, ApplyFault, FailFiberRow, RestoreFiberRow, and the
// decentralized commit path), with the operation's name. Nested
// mutations — a fault tearing down circuits mid-application — fire
// the hook only once, at the outermost level, so the hook always
// observes a consistent allocator. A nil fn detaches. The hook must
// not mutate the allocator.
func (a *Allocator) SetAuditHook(fn func(op string)) { a.auditHook = fn }

// beginOp/endOp bracket a mutation of shared state; the audit hook
// fires when the outermost bracket closes.
func (a *Allocator) beginOp() { a.mutDepth++ }

func (a *Allocator) endOp(op string) {
	a.mutDepth--
	if a.mutDepth == 0 && a.auditHook != nil {
		a.auditHook(op)
	}
}

// trackFiber updates the occupancy mirror by delta (+1 on allocate,
// -1 on free).
func (a *Allocator) trackFiber(ref wafer.FiberRef, delta int) {
	a.fibersUsed[fiberRowKey{trunk: ref.Trunk, row: ref.Row}] += delta
}

// Rack returns the underlying hardware.
func (a *Allocator) Rack() *wafer.Rack { return a.rack }

// Circuits returns the currently established circuits in ID order.
// The cost scales with the live circuit count, not with how many IDs
// have ever been issued — long-running owners (the controller daemon)
// call this from every audit pass.
func (a *Allocator) Circuits() []*Circuit {
	return a.AppendCircuits(make([]*Circuit, 0, len(a.circuits)))
}

// NumCircuits returns the live circuit count without materializing
// the sorted slice.
func (a *Allocator) NumCircuits() int { return len(a.circuits) }

// byID orders circuits by ID for the append-style accessors.
type byID []*Circuit

func (s byID) Len() int           { return len(s) }
func (s byID) Less(i, j int) bool { return s[i].ID < s[j].ID }
func (s byID) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// AppendCircuits appends the established circuits to dst in ID order
// and returns the extended slice. It is the allocation-free (given
// capacity) form of Circuits for callers that audit on a hot path.
func (a *Allocator) AppendCircuits(dst []*Circuit) []*Circuit {
	start := len(dst)
	for _, c := range a.circuits {
		dst = append(dst, c)
	}
	sort.Sort(byID(dst[start:]))
	return dst
}

// planStep is one bus span a candidate path wants.
type planStep struct {
	wafer int
	o     wafer.Orient
	lane  int
	span  wafer.Interval
}

// plan is a fully specified candidate path.
type plan struct {
	steps    []planStep
	trunks   []int // trunk indices crossed, ascending
	fiberRow int   // tile row used for every fiber hop
	turns    int
}

// span builds an interval from two positions in either order.
func span(a, b int) wafer.Interval {
	if a <= b {
		return wafer.Interval{Lo: a, Hi: b}
	}
	return wafer.Interval{Lo: b, Hi: a}
}

// intraWaferSteps appends the path from (r1,c1) to (r2,c2) on one
// wafer to steps. hFirst selects the horizontal-then-vertical L;
// otherwise vertical-then-horizontal.
func intraWaferSteps(steps []planStep, w, r1, c1, r2, c2 int, hFirst bool) []planStep {
	if hFirst {
		if c1 != c2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Horizontal, lane: r1, span: span(c1, c2)})
		}
		if r1 != r2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Vertical, lane: c2, span: span(r1, r2)})
		}
	} else {
		if r1 != r2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Vertical, lane: c1, span: span(r1, r2)})
		}
		if c1 != c2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Horizontal, lane: r2, span: span(c1, c2)})
		}
	}
	return steps
}

// candidatePlans enumerates paths between two chips in preference
// order: for each candidate fiber row (same-wafer circuits have none),
// the horizontal-first and vertical-first L-shapes. The returned slice
// and everything it references live in the allocator's scratch and are
// valid only until the next candidatePlans call.
func (a *Allocator) candidatePlans(chipA, chipB int) []plan {
	cfg := a.rack.Config()
	wA, rA, cA := a.rack.Place(chipA)
	wB, rB, cB := a.rack.Place(chipB)
	if wA > wB {
		wA, rA, cA, wB, rB, cB = wB, rB, cB, wA, rA, cA
	}

	s := &a.scratch
	s.plans = s.plans[:0]
	if wA == wB {
		for _, hFirst := range [2]bool{true, false} {
			p := s.nextPlan()
			p.steps = intraWaferSteps(p.steps, wA, rA, cA, rB, cB, hFirst)
			p.fiberRow = -1
			p.turns = maxInt(0, len(p.steps)-1)
		}
		// Z-shaped detours: when both L variants are blocked by bus
		// exhaustion, route via an intermediate column (H-V-H) or row
		// (V-H-V). The photonic mesh's path diversity is the point of
		// Figure 4's 10,000 waveguides.
		//lightpath:hotloop
		for cm := 0; cm < cfg.Cols; cm++ {
			if cm == cA || cm == cB || rA == rB {
				continue
			}
			p := s.nextPlan()
			p.fiberRow = -1
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rA, span: span(cA, cm)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cm, span: span(rA, rB)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rB, span: span(cm, cB)})
			p.turns = 2
		}
		//lightpath:hotloop
		for rm := 0; rm < cfg.Rows; rm++ {
			if rm == rA || rm == rB || cA == cB {
				continue
			}
			p := s.nextPlan()
			p.fiberRow = -1
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cA, span: span(rA, rm)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rm, span: span(cA, cB)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cB, span: span(rm, rB)})
			p.turns = 2
		}
		return s.plans
	}

	// Enumerate cascade directions: clockwise always; the ring
	// topology also offers the counterclockwise way around, which is
	// shorter when the wafers are more than half the cascade apart.
	nw := a.rack.NumWafers()
	type direction struct {
		trunks            []int
		inters            []int // intermediate wafers in path order
		exitCol, enterCol int   // source exit / destination entry columns
	}
	var dirs []direction
	cw := direction{exitCol: cfg.Cols - 1, enterCol: 0}
	for t := wA; t != wB; t = (t + 1) % nw {
		cw.trunks = append(cw.trunks, t)
		if next := (t + 1) % nw; next != wB {
			cw.inters = append(cw.inters, next)
		}
	}
	dirs = append(dirs, cw)
	if a.rack.Topology() == wafer.RingTopology && nw >= 2 {
		ccw := direction{exitCol: 0, enterCol: cfg.Cols - 1}
		for w := wA; w != wB; w = (w - 1 + nw) % nw {
			ccw.trunks = append(ccw.trunks, (w-1+nw)%nw)
			if prev := (w - 1 + nw) % nw; prev != wB {
				ccw.inters = append(ccw.inters, prev)
			}
		}
		dirs = append(dirs, ccw)
		if len(ccw.trunks) < len(cw.trunks) {
			dirs[0], dirs[1] = dirs[1], dirs[0]
		}
	}

	for _, dir := range dirs {
		for _, row := range a.fiberRowOrder(rA, wA, wB) {
			if !a.rowUsable(row, dir.trunks) {
				continue
			}
			for _, hFirst := range [2]bool{true, false} {
				p := s.nextPlan()
				p.fiberRow = row
				// Source wafer: to the exit edge at the fiber row.
				p.steps = intraWaferSteps(p.steps, wA, rA, cA, row, dir.exitCol, hFirst)
				// Intermediate wafers: straight across the fiber row.
				for _, w := range dir.inters {
					p.steps = append(p.steps, planStep{wafer: w, o: wafer.Horizontal, lane: row, span: wafer.Interval{Lo: 0, Hi: cfg.Cols - 1}})
				}
				// Destination wafer: from the entry edge.
				p.steps = intraWaferSteps(p.steps, wB, row, dir.enterCol, rB, cB, hFirst)
				p.trunks = append(p.trunks, dir.trunks...)
				p.turns = maxInt(0, len(p.steps)-1)
			}
		}
	}
	return s.plans
}

// fiberRowOrder returns candidate trunk rows in preference order. In
// the shortest-path regime the order is a precomputed table lookup; in
// the packing regime it is recomputed into scratch (occupancy changes
// between calls). Either way the result is read-only for the caller
// and valid until the next call.
func (a *Allocator) fiberRowOrder(srcRow, wA, wB int) []int {
	if !a.PackFibers {
		// Shortest-path preference: the source row first, then the
		// rest — geometry only, precomputed in NewAllocator.
		return a.rowOrder[srcRow]
	}
	cfg := a.rack.Config()
	// Most-used non-full rows first (pack), then the rest.
	uses := a.scratch.rowUses[:0]
	//lightpath:hotloop
	for row := 0; row < cfg.Rows; row++ {
		used, free := a.fiberRowOccupancy(row, wA, wB)
		uses = append(uses, rowUse{row: row, used: used, free: free})
	}
	rows := a.scratch.rows[:0]
	for {
		best := -1
		for i, u := range uses {
			if u.row < 0 || u.free == 0 {
				continue
			}
			if best < 0 || u.used > uses[best].used {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rows = append(rows, uses[best].row)
		uses[best].row = -1
	}
	a.scratch.rowUses = uses
	a.scratch.rows = rows
	return rows
}

// fiberRowOccupancy reports how many fibers of the row are used and
// free across the trunks the path must cross, taking the minimum free
// across trunks (every trunk needs one).
func (a *Allocator) fiberRowOccupancy(row, wA, wB int) (used, free int) {
	cfg := a.rack.Config()
	free = cfg.FibersPerEdge
	for tr := wA; tr < wB; tr++ {
		u := a.fibersUsed[fiberRowKey{trunk: tr, row: row}]
		used += u
		if f := cfg.FibersPerEdge - u; f < free {
			free = f
		}
	}
	return used, free
}

// Request asks for a circuit between two chips at a given wavelength
// width.
type Request struct {
	A, B  int
	Width int
}

// Establish finds a path for the request, atomically allocates its
// buses, fibers and endpoint resources, programs the switches, and
// returns the circuit. On any failure everything is rolled back and
// ErrNoPath (or a budget error) is returned.
func (a *Allocator) Establish(req Request, now unit.Seconds) (*Circuit, error) {
	if req.A == req.B {
		return nil, fmt.Errorf("route: circuit endpoints are the same chip %d", req.A)
	}
	if req.Width <= 0 {
		return nil, fmt.Errorf("route: non-positive width %d", req.Width)
	}
	// Out-of-range chips would panic deep inside rack.Place; a request
	// is external input and must fail with an error instead.
	for _, chip := range [2]int{req.A, req.B} {
		if chip < 0 || chip >= a.rack.NumChips() {
			return nil, fmt.Errorf("route: chip %d out of range [0, %d)", chip, a.rack.NumChips())
		}
		if !a.rack.TileOf(chip).ChipHealthy() {
			return nil, fmt.Errorf("%w: chip %d", ErrEndpointFailed, chip)
		}
	}
	a.beginOp()
	defer a.endOp("establish")
	//lightpath:arena
	plans := a.plansFor(req.A, req.B)
	var lastErr error = ErrNoPath
	for _, p := range plans {
		c, err := a.commit(req, p, now)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	// Both sentinels stay unwrappable: errors.Is sees ErrNoPath and
	// whatever sentinel the last commit attempt surfaced. The message is
	// formatted only if someone reads it — on a saturated fabric this is
	// the common Establish outcome, too hot for fmt.Errorf.
	return nil, &noPathError{a: req.A, b: req.B, cause: lastErr}
}

// noPathError is the establish failure after every candidate plan was
// rejected. Error formats lazily; Unwrap exposes both ErrNoPath and
// the last commit failure to errors.Is/As.
type noPathError struct {
	a, b  int
	cause error
}

func (e *noPathError) Error() string {
	return fmt.Sprintf("%v: chips %d<->%d: %v", ErrNoPath, e.a, e.b, e.cause)
}

func (e *noPathError) Unwrap() []error { return []error{ErrNoPath, e.cause} }

// commit attempts to allocate everything a plan needs, rolling back on
// failure.
func (a *Allocator) commit(req Request, p plan, now unit.Seconds) (c *Circuit, err error) {
	a.beginOp()
	defer a.endOp("commit")
	// The path is staged in scratch; only a successful commit copies it
	// into the circuit (setPath), so failed attempts allocate nothing.
	segs := a.scratch.segs[:0]
	fibers := a.scratch.fibers[:0]
	defer func() {
		a.scratch.segs = segs[:0]
		a.scratch.fibers = fibers[:0]
	}()
	reservedA, reservedB := false, false
	defer func() {
		if err == nil {
			return
		}
		for _, s := range segs {
			a.rack.Wafer(s.Wafer).FreeBus(s.Ref)
		}
		for _, f := range fibers {
			a.rack.FreeFiber(f)
			a.trackFiber(f, -1)
		}
		if reservedA {
			a.releaseEndpoint(req.A, req.Width)
		}
		if reservedB {
			a.releaseEndpoint(req.B, req.Width)
		}
	}()

	// Severed bus segments and stuck switches are hard health failures:
	// prune the plan before allocating anything so the rollback path
	// never has to undo switch programming.
	for _, st := range p.steps {
		if a.rack.Wafer(st.wafer).SpanSevered(st.o, st.lane, st.span) {
			return nil, fmt.Errorf("route: %s lane %d span [%d,%d] on wafer %d crosses a severed segment",
				st.o, st.lane, st.span.Lo, st.span.Hi, st.wafer)
		}
	}
	for _, su := range a.planSwitches(req, p) {
		if !su.tile.SwitchHealthy(su.sw) {
			return nil, fmt.Errorf("route: tile (%d,%d) switch %d is stuck", su.tile.Row, su.tile.Col, su.sw)
		}
	}

	for _, st := range p.steps {
		ref, aerr := a.rack.Wafer(st.wafer).AllocBus(st.o, st.lane, st.span)
		if aerr != nil {
			return nil, aerr
		}
		segs = append(segs, Segment{Wafer: st.wafer, Ref: ref})
	}
	for _, tr := range p.trunks {
		ref, aerr := a.rack.AllocFiber(tr, p.fiberRow)
		if aerr != nil {
			return nil, aerr
		}
		fibers = append(fibers, ref)
		a.trackFiber(ref, +1)
	}
	if err = a.reserveEndpoint(req.A, req.Width); err != nil {
		return nil, err
	}
	reservedA = true
	if err = a.reserveEndpoint(req.B, req.Width); err != nil {
		return nil, err
	}
	reservedB = true

	link := a.evaluate(p, segs, fibers)
	if a.CheckBudget && !link.Feasible {
		return nil, fmt.Errorf("route: circuit %d<->%d infeasible: %v", req.A, req.B, link)
	}

	a.programSwitches(req, p, now)
	c = &Circuit{
		ID:            a.nextID,
		A:             req.A,
		B:             req.B,
		Width:         req.Width,
		EstablishedAt: now,
		ReadyAt:       now + phy.ReconfigLatency,
		Link:          link,
	}
	c.setPath(segs, fibers)
	a.nextID++
	a.circuits[c.ID] = c
	return c, nil
}

// Release tears down a circuit and returns its resources. Releasing a
// circuit this allocator does not currently hold — a double release,
// or a circuit belonging to a different allocator (a clone's, say) —
// is a no-op: fault-driven teardown can race a caller-driven one, and
// the loser must never corrupt the occupancy counts. The identity
// check is by pointer, not ID, so a clone's circuit with a coinciding
// ID cannot free this allocator's resources.
func (a *Allocator) Release(c *Circuit) {
	if cur, ok := a.circuits[c.ID]; !ok || cur != c {
		return
	}
	a.beginOp()
	defer a.endOp("release")
	delete(a.circuits, c.ID)
	for _, s := range c.Segments {
		a.rack.Wafer(s.Wafer).FreeBus(s.Ref)
	}
	for _, f := range c.Fibers {
		a.rack.FreeFiber(f)
		a.trackFiber(f, -1)
	}
	a.releaseEndpoint(c.A, c.Width)
	a.releaseEndpoint(c.B, c.Width)
}

// evaluate computes the circuit's optical budget: couplings at the
// endpoints, two MZI stages per switch traversed (endpoints plus one
// switch per turn), one crossing per pass-through tile and per turn
// (the signal crosses the orthogonal bus bundle), one reticle stitch
// per tile boundary, propagation over the Manhattan length, and one
// loss element per fiber hop.
func (a *Allocator) evaluate(p plan, segs []Segment, fibers []wafer.FiberRef) phy.LinkReport {
	cfg := a.rack.Config()
	// The element list is rebuilt for every candidate plan commit tries;
	// reuse the scratch buffer (Budget.Evaluate does not retain it).
	elems := a.scratch.elems[:0]
	defer func() { a.scratch.elems = elems }()
	elems = append(elems, a.loss.Coupling(), a.loss.Coupling())
	switches := 2 + p.turns
	for i := 0; i < switches; i++ {
		elems = append(elems, a.loss.MZIPass(), a.loss.MZIPass())
	}
	//lightpath:hotloop
	for _, s := range segs {
		length := s.Ref.Span.Hi - s.Ref.Span.Lo
		for b := 0; b < length; b++ {
			elems = append(elems, a.loss.Stitch())
		}
		if through := length - 1; through > 0 {
			for t := 0; t < through; t++ {
				elems = append(elems, a.loss.Crossing())
			}
		}
		elems = append(elems, a.loss.Propagation(unit.Meters(length)*cfg.TileEdge))
		// Fault-induced degradation on the span (chaos engine's
		// waveguide faults) is charged like any other loss element, so
		// a degraded-but-surviving path is accepted exactly when its
		// budget still closes.
		if extra := a.rack.Wafer(s.Wafer).SpanExtraLossDB(s.Ref.Orient, s.Ref.Lane, s.Ref.Span); extra > 0 {
			elems = append(elems, phy.LossElement{Kind: phy.LossDefect, DB: unit.Decibel(extra)})
		}
	}
	for t := 0; t < p.turns; t++ {
		elems = append(elems, a.loss.Crossing())
	}
	for range fibers {
		elems = append(elems, a.loss.FiberHop())
	}
	return a.Budget.Evaluate(elems)
}

// switchUse pairs a tile with the switch index a plan programs there.
type switchUse struct {
	tile *wafer.Tile
	sw   int
}

// planSwitches lists the switches a plan needs to program: switch 0 at
// each endpoint tile (facing the Tx/Rx block) and switch 1 at each
// turn tile, where one step ends and the next begins. commit checks
// these for stuck-state health before allocating, and programSwitches
// drives them after.
// The returned slice lives in the allocator's scratch and is valid
// only until the next planSwitches call.
func (a *Allocator) planSwitches(req Request, p plan) []switchUse {
	uses := a.scratch.uses[:0]
	defer func() { a.scratch.uses = uses }()
	uses = append(uses,
		switchUse{tile: a.rack.TileOf(req.A), sw: 0},
		switchUse{tile: a.rack.TileOf(req.B), sw: 0},
	)
	//lightpath:hotloop
	for i := range p.steps {
		if i == 0 {
			continue
		}
		st := p.steps[i]
		var row, col int
		if st.o == wafer.Horizontal {
			row = st.lane
			col = clampToSpan(p.steps[i-1], st)
		} else {
			col = st.lane
			row = clampToSpan(p.steps[i-1], st)
		}
		uses = append(uses, switchUse{tile: a.rack.Wafer(st.wafer).Tile(row, col), sw: 1})
	}
	return uses
}

// programSwitches drives the plan's MZI switches toward the circuit's
// buses. The concrete port assignment is cosmetic for the simulation;
// what matters is that the settle clock starts, making ReadyAt =
// now + 3.7 us observable hardware state. commit verified the switches
// are healthy, so Program cannot fail here.
func (a *Allocator) programSwitches(req Request, p plan, now unit.Seconds) {
	for i, su := range a.planSwitches(req, p) {
		port := 1
		if i < 2 {
			// The endpoint switch routes the Tx/Rx block to the bus.
			port = 0
		}
		_ = su.tile.Switches[su.sw].Program(port, now)
	}
}

// clampToSpan picks the junction coordinate between two consecutive
// steps; when the steps are on different wafers (a fiber hop) the
// junction is the new span's entry edge.
func clampToSpan(prev, cur planStep) int {
	return junction(prev.wafer, prev.lane, cur.wafer, cur.span)
}

// junction is the step-junction rule on primitive fields, shared by
// the plan-time switch listing and the segment-time reconstruction in
// AppendCircuitSwitches: the previous step's lane is a position along
// the current span, clamped to it; a wafer change enters at the span's
// low edge.
func junction(prevWafer, prevLane, curWafer int, curSpan wafer.Interval) int {
	if prevWafer != curWafer {
		return curSpan.Lo
	}
	if prevLane < curSpan.Lo {
		return curSpan.Lo
	}
	if prevLane > curSpan.Hi {
		return curSpan.Hi
	}
	return prevLane
}

// SwitchExpectation pairs a tile with the switch index a circuit's
// path programs there and the port it must be routed to.
type SwitchExpectation struct {
	Tile   *wafer.Tile
	Switch int
	Port   int
}

// AppendCircuitSwitches reconstructs, from a circuit's committed
// segments, the switch programming its path required: switch 0 routed
// to port 0 at each endpoint tile (facing the Tx/Rx block) and switch
// 1 routed to port 1 at each turn tile. Segments mirror the committed
// plan's steps one-to-one in path order, so the reconstruction is
// exact; the invariant auditor compares it against the hardware's
// actual switch state. It appends to dst and returns the extended
// slice, so the audit hot path reuses one buffer.
func (a *Allocator) AppendCircuitSwitches(dst []SwitchExpectation, c *Circuit) []SwitchExpectation {
	out := append(dst,
		SwitchExpectation{Tile: a.rack.TileOf(c.A), Switch: 0, Port: 0},
		SwitchExpectation{Tile: a.rack.TileOf(c.B), Switch: 0, Port: 0},
	)
	for i := 1; i < len(c.Segments); i++ {
		prev, cur := c.Segments[i-1], c.Segments[i]
		var row, col int
		if cur.Ref.Orient == wafer.Horizontal {
			row = cur.Ref.Lane
			col = junction(prev.Wafer, prev.Ref.Lane, cur.Wafer, cur.Ref.Span)
		} else {
			col = cur.Ref.Lane
			row = junction(prev.Wafer, prev.Ref.Lane, cur.Wafer, cur.Ref.Span)
		}
		out = append(out, SwitchExpectation{Tile: a.rack.Wafer(cur.Wafer).Tile(row, col), Switch: 1, Port: 1})
	}
	return out
}

// FiberRowUsage returns the allocator's occupancy-mirror count for one
// trunk row — how many fibers it believes are in use there. The
// invariant auditor cross-checks this against the rack's ground truth.
func (a *Allocator) FiberRowUsage(trunk, row int) int {
	return a.fibersUsed[fiberRowKey{trunk: trunk, row: row}]
}

func (a *Allocator) reserveEndpoint(chip, width int) error {
	return a.rack.TileOf(chip).Reserve(width)
}

func (a *Allocator) releaseEndpoint(chip, width int) {
	a.rack.TileOf(chip).Release(width)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
