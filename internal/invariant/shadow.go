package invariant

import (
	"fmt"
	"slices"

	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// shadow is the auditor's image of what the live circuit table implies
// for every shared resource: which circuit owns each bus position and
// fiber, how many intervals each bus and how many fibers each trunk
// row should hold, what each chip should have reserved, and which port
// each programmed switch must be on. A full pass rebuilds it from the
// allocator (reset, then add for every live circuit, then the
// rack-wide totals); a delta check keeps it in step with one mutation
// (remove for each released circuit, add for each established one)
// and compares the hardware against it only where the mutation
// touched something. Both paths run the same add, so the per-circuit
// checks cannot drift apart.
//
// The shadow is derived state: it is never serialized, and the auditor
// rebuilds it with a full pass whenever it may be out of step (first
// use, a restored checkpoint, a wide operation).
type shadow struct {
	// valid is set by a full pass and cleared whenever the shadow may
	// no longer describe the allocator; a delta check needs it set.
	valid bool
	// The audited rack's geometry, which sizes the grids and tallies.
	cfg                   wafer.Config
	wafers, trunks, chips int
	// epoch numbers the full passes. A grid cell holding
	// epoch<<ownerBits | slot+1 is owned by the live circuit recorded
	// in live[slot]; any other value is free, so a full pass clears
	// nothing until the epoch wraps.
	epoch uint64
	// busGrid holds one owner grid per (wafer, lane), the wafer's Rows
	// horizontal lanes then its Cols vertical ones, indexed
	// bus*positions+pos and grown to the highest bus a circuit holds.
	busGrid [][]uint64
	// busSpans counts, per (wafer, lane) and bus, the intervals the
	// live circuits hold there.
	busSpans [][]busTally
	// fiberGrid is indexed (trunk*Rows+row)*FibersPerEdge+fiber.
	fiberGrid []uint64
	// rows tallies live circuit fibers per trunk*Rows+row, chipTallies
	// the terminating circuits' widths and count per chip, and switches
	// the circuits needing each chip*wafer.SwitchesPerTile+switch.
	rows        []rowTally
	chipTallies []chipTally
	switches    []switchTally
	// visit numbers the delta checks since the last full pass. A
	// touched resource is compared once per check: its tally records
	// the check that compared it.
	visit uint32
	// live records, per slot, what a live circuit held when it was
	// added, so a release can be checked against it even if the
	// circuit was rewritten in place since. free lists the slots of
	// released circuits for reuse.
	live []liveCircuit
	free []int32
	// segments and fibers total the added circuits' segments and
	// fibers; only a full pass reads them.
	segments, fibers int
	// delta is set while a delta check folds circuits in: add then
	// queues the buses it changes in touched, as remove always does.
	delta bool

	// Working storage, reused across checks.
	circuits []*route.Circuit
	expect   []route.SwitchExpectation
	touched  []touchedBus
	// released are the switches removed circuits stop needing, and
	// movedChips the endpoints a rewritten circuit was established at.
	released   []route.SwitchRef
	movedChips []int
	partners   []int
	// found collects violation details per registry entry, so a
	// single walk reports them grouped in registry order.
	found [numInvariants][]string
}

// liveCircuit is what a circuit held when the shadow added it.
type liveCircuit struct {
	id                            int
	a, b, width, segments, fibers int32
	gone                          bool
}

// busTally counts the intervals live circuits hold on one bus.
type busTally struct {
	spans int32
	visit uint32
}

// rowTally counts the fibers live circuits hold in one trunk row.
type rowTally struct {
	fibers int32
	visit  uint32
}

// chipTally sums the widths of, and counts, the live circuits
// terminating at one chip.
type chipTally struct {
	lasers, ports int32
	visit         uint32
}

// switchTally counts the live circuits whose paths need a switch and
// the port they need it on.
type switchTally struct {
	refs, port int32
	visit      uint32
}

// touchedBus is a bus a delta check changed, with its (wafer, lane)
// index in the grids.
type touchedBus struct {
	seg  *route.Segment
	lane int
}

// Owner-grid cell layout: the high bits are the epoch, the low
// ownerBits the owning circuit's slot plus one.
const (
	ownerBits  = 48
	ownerMask  = 1<<ownerBits - 1
	epochLimit = 1 << (64 - ownerBits)
)

// firstVisit reports whether the current delta check has not yet
// compared the resource whose visit stamp is v, and stamps it.
func (s *shadow) firstVisit(v *uint32) bool {
	if *v == s.visit {
		return false
	}
	*v = s.visit
	return true
}

// report records one violation of invariant inv.
func (s *shadow) report(inv int, format string, args ...any) {
	s.found[inv] = append(s.found[inv], fmt.Sprintf(format, args...))
}

// collect returns the recorded findings as Violations in registry
// order, or nil when there are none, and clears them.
func (s *shadow) collect(op string) []Violation {
	var out []Violation
	for inv := range s.found {
		for _, d := range s.found[inv] {
			out = append(out, Violation{Invariant: registry[inv].name, Op: op, Detail: d})
		}
		s.found[inv] = s.found[inv][:0]
	}
	return out
}

// zeroed returns buf resized to n zero values, reusing its capacity.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset starts a full pass: it sizes the grids and tallies for the
// allocator's rack, advances the epoch (clearing the owner grids only
// when it wraps) and zeroes every tally.
func (s *shadow) reset(a *route.Allocator) {
	rack := a.Rack()
	s.cfg, s.wafers, s.trunks, s.chips = rack.Config(), rack.NumWafers(), rack.NumTrunks(), rack.NumChips()
	if n := s.wafers * (s.cfg.Rows + s.cfg.Cols); len(s.busGrid) != n {
		s.busGrid = make([][]uint64, n)
		s.busSpans = make([][]busTally, n)
	}
	if n := s.trunks * s.cfg.Rows * s.cfg.FibersPerEdge; len(s.fiberGrid) != n {
		s.fiberGrid = make([]uint64, n)
	}
	if s.epoch++; s.epoch >= epochLimit {
		for _, g := range s.busGrid {
			clear(g)
		}
		clear(s.fiberGrid)
		s.epoch = 1
	}
	for _, b := range s.busSpans {
		clear(b)
	}
	s.rows = zeroed(s.rows, s.trunks*s.cfg.Rows)
	s.chipTallies = zeroed(s.chipTallies, s.chips)
	s.switches = zeroed(s.switches, s.chips*wafer.SwitchesPerTile)
	s.visit = 0
	s.live, s.free = s.live[:0], s.free[:0]
	s.segments, s.fibers = 0, 0
}

// rebuild is the full pass: every live circuit through the same add a
// delta check uses, then the rack-wide totals no footprint covers.
func (s *shadow) rebuild(a *route.Allocator) {
	s.reset(a)
	s.circuits = a.AppendCircuits(s.circuits[:0])
	for _, c := range s.circuits {
		s.add(a, c)
	}
	s.totals(a)
	s.valid = true
}

// apply is the delta check of one mutation: it folds the journal's
// released and established circuits into the shadow, checking each,
// then compares every resource the mutation touched — those circuits'
// buses, fiber rows, endpoints and switches, and what failed commit
// attempts touched — against the shadow. It reports false, with the
// shadow invalidated and no findings kept, when a released circuit was
// never in the shadow: only a full pass can resynchronize then.
//
//lightpath:hotloop
func (s *shadow) apply(a *route.Allocator, j *route.Journal) bool {
	if s.visit == ^uint32(0) {
		s.valid = false
		return false
	}
	s.visit++
	for _, c := range j.Removed {
		if !s.remove(a, c) {
			s.valid = false
			s.touched, s.released, s.movedChips = s.touched[:0], s.released[:0], s.movedChips[:0]
			for inv := range s.found {
				s.found[inv] = s.found[inv][:0]
			}
			return false
		}
	}
	s.delta = true
	for _, c := range j.Added {
		s.add(a, c)
	}
	s.delta = false
	for _, t := range s.touched {
		s.checkBus(a, t.seg, t.lane)
	}
	for i := range j.Buses {
		if lane, _, ok := s.locate(&j.Buses[i]); ok {
			s.checkBus(a, &j.Buses[i], lane)
		}
	}
	for _, c := range j.Removed {
		s.checkEnds(a, c)
	}
	for _, c := range j.Added {
		s.checkEnds(a, c)
	}
	for _, f := range j.Fibers {
		s.checkFiberRow(a, f.Trunk, f.Row)
	}
	for _, chip := range j.Chips {
		s.checkChip(a, chip)
	}
	for _, chip := range s.movedChips {
		s.checkChip(a, chip)
	}
	for _, sw := range j.Switches {
		s.checkSwitch(a, sw)
	}
	for _, sw := range s.released {
		s.checkSwitch(a, sw)
	}
	s.touched, s.released, s.movedChips = s.touched[:0], s.released[:0], s.movedChips[:0]
	return true
}

// locate returns the segment's (wafer, lane) index in the bus grids
// and its bus's position count, or ok=false when the segment lies
// outside the rack's bus grid or its span is inverted.
func (s *shadow) locate(seg *route.Segment) (lane, positions int, ok bool) {
	r, rows := &seg.Ref, s.cfg.Rows
	lane, lanes, positions := r.Lane, rows, s.cfg.Cols
	if r.Orient == wafer.Vertical {
		lane, lanes, positions = rows+r.Lane, s.cfg.Cols, rows
	} else if r.Orient != wafer.Horizontal {
		return 0, 0, false
	}
	if seg.Wafer < 0 || seg.Wafer >= s.wafers || r.Lane < 0 || r.Lane >= lanes || r.Bus < 0 ||
		r.Bus >= s.cfg.BusesPerLane || r.Span.Lo < 0 || r.Span.Lo > r.Span.Hi || r.Span.Hi >= positions {
		return 0, 0, false
	}
	return seg.Wafer*(rows+s.cfg.Cols) + lane, positions, true
}

// busCells returns the owner cells of a located span, growing its
// lane's grid to cover the bus when grow is set; nil when (without
// grow) the bus lies beyond what any circuit has held.
func (s *shadow) busCells(lane, positions int, r *wafer.BusRef, grow bool) []uint64 {
	g, base := &s.busGrid[lane], r.Bus*positions
	if need := base + positions; len(*g) < need {
		if !grow {
			return nil
		}
		*g = append(*g, make([]uint64, need-len(*g))...)
	}
	return (*g)[base+r.Span.Lo : base+r.Span.Hi+1]
}

// busTally returns the shadow's interval count for a located bus,
// growing the lane's tallies to cover it.
func (s *shadow) busTally(lane, bus int) *busTally {
	t := &s.busSpans[lane]
	if need := bus + 1; len(*t) < need {
		*t = append(*t, make([]busTally, need-len(*t))...)
	}
	return &(*t)[bus]
}

// fiberCell returns the fiber's owner cell, or nil when the fiber lies
// outside the rack's trunks.
func (s *shadow) fiberCell(f wafer.FiberRef) *uint64 {
	rows, fibers := s.cfg.Rows, s.cfg.FibersPerEdge
	if f.Trunk < 0 || f.Trunk >= s.trunks || f.Row < 0 || f.Row >= rows || f.Fiber < 0 || f.Fiber >= fibers {
		return nil
	}
	return &s.fiberGrid[(f.Trunk*rows+f.Row)*fibers+f.Fiber]
}

// rowIndex returns the (trunk, row) tally index, or -1 off the rack.
func (s *shadow) rowIndex(trunk, row int) int {
	if trunk < 0 || trunk >= s.trunks || row < 0 || row >= s.cfg.Rows {
		return -1
	}
	return trunk*s.cfg.Rows + row
}

// stamp is the owner-grid value of the circuit in slot.
func (s *shadow) stamp(slot int) uint64 { return s.epoch<<ownerBits | uint64(slot+1) }

// claim stamps cell for the circuit being added or, when another live
// circuit already owns it, records that circuit's slot as a partner
// once. A circuit's own earlier stamp is no collision.
func (s *shadow) claim(cell *uint64, stamp uint64) {
	if prev := *cell; prev>>ownerBits != s.epoch {
		*cell = stamp
	} else if slot := int(prev&ownerMask) - 1; prev != stamp && !slices.Contains(s.partners, slot) {
		s.partners = append(s.partners, slot)
	}
}

// newSlot returns a free live-record slot.
func (s *shadow) newSlot() int {
	if n := len(s.free); n > 0 {
		slot := int(s.free[n-1])
		s.free = s.free[:n-1]
		return slot
	}
	s.live = append(s.live, liveCircuit{})
	return len(s.live) - 1
}

// holder returns the slot owning cell when its live circuit has id.
func (s *shadow) holder(cell uint64, id int) (int, bool) {
	slot := int(cell&ownerMask) - 1
	return slot, cell>>ownerBits == s.epoch && uint(slot) < uint(len(s.live)) && !s.live[slot].gone && s.live[slot].id == id
}

// slotOf finds a circuit's live record through the owner of the first
// cell it holds, scanning the records only when its path was
// rewritten behind the allocator's back.
func (s *shadow) slotOf(c *route.Circuit) (int, bool) {
	for k := range c.Segments {
		seg := &c.Segments[k]
		if lane, positions, ok := s.locate(seg); ok {
			if cells := s.busCells(lane, positions, &seg.Ref, false); cells != nil {
				if slot, ok := s.holder(cells[0], c.ID); ok {
					return slot, true
				}
			}
		}
	}
	for _, f := range c.Fibers {
		if cell := s.fiberCell(f); cell != nil {
			if slot, ok := s.holder(*cell, c.ID); ok {
				return slot, true
			}
		}
	}
	for slot := range s.live {
		if r := &s.live[slot]; !r.gone && r.id == c.ID {
			return slot, true
		}
	}
	return 0, false
}

// add checks one circuit entering the audited state — a newly
// established one in a delta check, every live one in a full pass —
// against every per-circuit invariant, and folds it into the shadow.
//
//lightpath:hotloop
func (s *shadow) add(a *route.Allocator, c *route.Circuit) {
	rack := a.Rack()
	if c.Width < 1 {
		s.report(invDisjoint, "circuit %d has non-positive width %d", c.ID, c.Width)
	}
	// onGrid tracks whether every reference lies inside the rack, so
	// the circuit's switch programming can be reconstructed.
	onGrid := true
	for _, ep := range [2]int{c.A, c.B} {
		if ep < 0 || ep >= s.chips {
			s.report(invDisjoint, "circuit %d endpoint chip %d lies outside the rack", c.ID, ep)
			onGrid = false
			continue
		}
		t := &s.chipTallies[ep]
		t.lasers += int32(c.Width)
		t.ports++
		if !rack.TileOf(ep).ChipHealthy() {
			s.report(invBudget, "circuit %d terminates at failed chip %d", c.ID, ep)
		}
	}
	slot := s.newSlot()
	stamp := s.stamp(slot)
	s.partners = s.partners[:0]
	s.segments += len(c.Segments)
	wafersOK := true
	for k := range c.Segments {
		seg := &c.Segments[k]
		if lane, positions, ok := s.locate(seg); ok {
			cells := s.busCells(lane, positions, &seg.Ref, true)
			for i := range cells {
				s.claim(&cells[i], stamp)
			}
			s.busTally(lane, seg.Ref.Bus).spans++
			if s.delta {
				s.touched = append(s.touched, touchedBus{seg: seg, lane: lane})
			}
		} else {
			s.report(invDisjoint, "circuit %d segment %v lies outside the rack's bus grid", c.ID, *seg)
			if onGrid = false; seg.Wafer < 0 || seg.Wafer >= s.wafers {
				wafersOK = false
				continue
			}
		}
		w := rack.Wafer(seg.Wafer)
		if !w.BusSpanAllocated(seg.Ref) {
			s.report(invBus, "circuit %d segment %v is not allocated in the lane occupancy", c.ID, *seg)
		}
		if w.SpanSevered(seg.Ref.Orient, seg.Ref.Lane, seg.Ref.Span) {
			s.report(invBudget, "circuit %d crosses severed segment %v", c.ID, *seg)
		}
	}
	s.fibers += len(c.Fibers)
	for _, f := range c.Fibers {
		if cell := s.fiberCell(f); cell != nil {
			s.claim(cell, stamp)
		} else {
			s.report(invDisjoint, "circuit %d fiber %v lies outside the rack's fiber grid", c.ID, f)
		}
		if !rack.FiberAllocated(f) {
			s.report(invFiber, "circuit %d fiber %v is not occupied in the rack", c.ID, f)
		}
		if row := s.rowIndex(f.Trunk, f.Row); row >= 0 {
			s.rows[row].fibers++
		}
		if a.RowFailed(f.Trunk, f.Row) {
			s.report(invBudget, "circuit %d uses cut fiber row (trunk %d, row %d)", c.ID, f.Trunk, f.Row)
		}
	}
	// Partners were added before this circuit and hold lower IDs, so
	// each pair prints in order.
	for _, p := range s.partners {
		s.report(invDisjoint, "circuits %d and %d share a bus segment or fiber", s.live[p].id, c.ID)
	}
	if !unit.ApproxEqual(c.ReadyAt, c.EstablishedAt+phy.ReconfigLatency) {
		s.report(invBudget, "circuit %d ready at %v, not one reconfiguration latency after %v", c.ID, c.ReadyAt, c.EstablishedAt)
	}
	// Without budget checking the allocator legitimately admits
	// margin-negative circuits, so feasibility is only an invariant
	// when the allocator itself enforces it.
	if a.CheckBudget && wafersOK && !a.StillFeasible(c) {
		s.report(invBudget, "circuit %d no longer closes its optical budget (margin %v, degradation since establish exceeds it)", c.ID, c.Link.MarginDB)
	}
	if onGrid {
		s.expect = a.AppendCircuitSwitches(s.expect[:0], c)
		for _, se := range s.expect {
			if got := se.Tile.Switches[se.Switch].Port(); got != se.Port {
				s.report(invSwitch, "circuit %d needs tile (%d,%d) switch %d on port %d, hardware says port %d",
					c.ID, se.Tile.Row, se.Tile.Col, se.Switch, se.Port, got)
			}
			t := &s.switches[se.Chip*wafer.SwitchesPerTile+se.Switch]
			t.refs++
			t.port = int32(se.Port)
		}
	}
	s.live[slot] = liveCircuit{id: c.ID, a: int32(c.A), b: int32(c.B), width: int32(c.Width),
		segments: int32(len(c.Segments)), fibers: int32(len(c.Fibers))}
}

// remove takes a released circuit out of the shadow, verifying that it
// releases exactly what it held when it was added. It reports false
// when the shadow never held the circuit.
//
//lightpath:hotloop
func (s *shadow) remove(a *route.Allocator, c *route.Circuit) bool {
	slot, ok := s.slotOf(c)
	if !ok {
		return false
	}
	rec := s.live[slot]
	s.live[slot].gone = true
	s.free = append(s.free, int32(slot))
	stamp := s.stamp(slot)
	onGrid := c.A >= 0 && c.A < s.chips && c.B >= 0 && c.B < s.chips
	for k := range c.Segments {
		seg := &c.Segments[k]
		lane, positions, ok := s.locate(seg)
		var cells []uint64
		if ok {
			cells = s.busCells(lane, positions, &seg.Ref, false)
		}
		if cells == nil {
			onGrid = onGrid && ok
			s.report(invBus, "circuit %d released segment %v, which it did not hold", c.ID, *seg)
			continue
		}
		held := true
		for i := range cells {
			if cells[i] == stamp {
				cells[i] = 0
			} else {
				held = false
			}
		}
		if !held {
			s.report(invBus, "circuit %d released segment %v, which it did not hold", c.ID, *seg)
		}
		s.busTally(lane, seg.Ref.Bus).spans--
		s.touched = append(s.touched, touchedBus{seg: seg, lane: lane})
	}
	for _, f := range c.Fibers {
		if cell := s.fiberCell(f); cell != nil && *cell == stamp {
			*cell = 0
		} else {
			s.report(invFiber, "circuit %d released fiber %v, which it did not hold", c.ID, f)
		}
		if row := s.rowIndex(f.Trunk, f.Row); row >= 0 {
			s.rows[row].fibers--
		}
	}
	if len(c.Segments) != int(rec.segments) {
		s.report(invBus, "circuit %d released %d bus segments but was established with %d", c.ID, len(c.Segments), rec.segments)
	}
	if len(c.Fibers) != int(rec.fibers) {
		s.report(invFiber, "circuit %d released %d fibers but was established with %d", c.ID, len(c.Fibers), rec.fibers)
	}
	for _, ep := range [2]int{int(rec.a), int(rec.b)} {
		if ep >= 0 && ep < s.chips {
			t := &s.chipTallies[ep]
			t.lasers -= rec.width
			t.ports--
		}
		// A circuit rewritten in place may have released elsewhere;
		// its ends cover where it did release, this where it held.
		if ep != c.A && ep != c.B {
			s.movedChips = append(s.movedChips, ep)
		}
	}
	if onGrid {
		s.expect = a.AppendCircuitSwitches(s.expect[:0], c)
		for _, se := range s.expect {
			s.switches[se.Chip*wafer.SwitchesPerTile+se.Switch].refs--
			s.released = append(s.released, route.SwitchRef{Chip: se.Chip, Switch: se.Switch})
		}
	}
	return true
}

// checkBus compares one touched, located bus's allocated intervals
// with the live circuits' segments there.
//
//lightpath:hotloop
func (s *shadow) checkBus(a *route.Allocator, seg *route.Segment, lane int) {
	want := 0
	if t := s.busSpans[lane]; seg.Ref.Bus < len(t) {
		if !s.firstVisit(&t[seg.Ref.Bus].visit) {
			return
		}
		want = int(t[seg.Ref.Bus].spans)
	}
	r := &seg.Ref
	if got := a.Rack().Wafer(seg.Wafer).BusSpans(r.Orient, r.Lane, r.Bus); got != want {
		s.report(invBus, "wafer %d %s lane %d bus %d holds %d allocated spans but circuits account for %d",
			seg.Wafer, r.Orient, r.Lane, r.Bus, got, want)
	}
}

// checkEnds checks the fiber rows and endpoint chips of a circuit a
// delta check added or removed.
func (s *shadow) checkEnds(a *route.Allocator, c *route.Circuit) {
	for _, f := range c.Fibers {
		s.checkFiberRow(a, f.Trunk, f.Row)
	}
	s.checkChip(a, c.A)
	s.checkChip(a, c.B)
}

// checkFiberRow compares one touched trunk row's occupied fibers and
// the allocator's mirror with the live circuits' fibers there.
//
//lightpath:hotloop
func (s *shadow) checkFiberRow(a *route.Allocator, trunk, row int) {
	i := s.rowIndex(trunk, row)
	if i < 0 || !s.firstVisit(&s.rows[i].visit) {
		return
	}
	want := int(s.rows[i].fibers)
	if got := a.Rack().RowFibersInUse(trunk, row); got != want {
		s.report(invFiber, "trunk %d row %d holds %d occupied fibers but circuits account for %d", trunk, row, got, want)
	}
	if got := a.FiberRowUsage(trunk, row); got != want {
		s.report(invFiber, "allocator mirror says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want)
	}
}

// checkChip balances one touched chip's reservations against the live
// circuits terminating there, and checks a failed chip holds none.
//
//lightpath:hotloop
func (s *shadow) checkChip(a *route.Allocator, chip int) {
	if chip < 0 || chip >= s.chips || !s.firstVisit(&s.chipTallies[chip].visit) {
		return
	}
	t := a.Rack().TileOf(chip)
	s.balance(t, chip)
	if n := s.chipTallies[chip].ports; n > 0 && !t.ChipHealthy() {
		s.report(invBudget, "failed chip %d still terminates %d circuits", chip, n)
	}
}

// balance checks a chip's reserved lasers and ports against the
// shadow's tallies and its capacity.
func (s *shadow) balance(t *wafer.Tile, chip int) {
	want := &s.chipTallies[chip]
	if got := t.UsedLasers(); got != int(want.lasers) {
		s.report(invEndpoint, "chip %d tile (%d,%d) reserves %d lasers but circuit widths sum to %d", chip, t.Row, t.Col, got, want.lasers)
	}
	if got := t.UsedPorts(); got != int(want.ports) {
		s.report(invEndpoint, "chip %d tile (%d,%d) reserves %d SerDes ports but %d circuits terminate there", chip, t.Row, t.Col, got, want.ports)
	}
	if t.FreeLasers() < 0 {
		s.report(invEndpoint, "chip %d tile (%d,%d) is over-committed: %d free lasers", chip, t.Row, t.Col, t.FreeLasers())
	}
	if t.FreePorts() < 0 {
		s.report(invEndpoint, "chip %d tile (%d,%d) is over-committed: %d free SerDes ports", chip, t.Row, t.Col, t.FreePorts())
	}
}

// checkSwitch compares one touched switch with the port the live
// circuits needing it require.
//
//lightpath:hotloop
func (s *shadow) checkSwitch(a *route.Allocator, sw route.SwitchRef) {
	if sw.Chip < 0 || sw.Chip >= s.chips || sw.Switch < 0 || sw.Switch >= wafer.SwitchesPerTile {
		return
	}
	want := &s.switches[sw.Chip*wafer.SwitchesPerTile+sw.Switch]
	if want.refs <= 0 || !s.firstVisit(&want.visit) {
		return
	}
	t := a.Rack().TileOf(sw.Chip)
	if got := t.Switches[sw.Switch].Port(); got != int(want.port) {
		s.report(invSwitch, "tile (%d,%d) switch %d carries %d circuits on port %d, hardware says port %d",
			t.Row, t.Col, sw.Switch, want.refs, want.port, got)
	}
}

// totals checks what no footprint covers: the rack-wide span and
// fiber counts, every trunk row's mirror, and every chip's balance.
func (s *shadow) totals(a *route.Allocator) {
	rack := a.Rack()
	allocated := 0
	for w := 0; w < s.wafers; w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != s.segments {
		s.report(invBus, "rack holds %d allocated bus spans but circuits account for %d (leak or double free)", allocated, s.segments)
	}
	if used := rack.FibersInUse(); used != s.fibers {
		s.report(invFiber, "rack holds %d occupied fibers but circuits account for %d (leak or double free)", used, s.fibers)
	}
	for trunk := 0; trunk < s.trunks; trunk++ {
		for row := 0; row < s.cfg.Rows; row++ {
			if got, want := a.FiberRowUsage(trunk, row), int(s.rows[trunk*s.cfg.Rows+row].fibers); got != want {
				s.report(invFiber, "allocator mirror says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want)
			}
		}
	}
	for chip := 0; chip < s.chips; chip++ {
		s.balance(rack.TileOf(chip), chip)
	}
}
