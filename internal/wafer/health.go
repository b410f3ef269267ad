package wafer

import (
	"fmt"
)

// This file is the hardware half of the failure lifecycle: per-
// component health state and the fault-application entry points the
// chaos engine's faults map onto. The wafer layer only records what is
// broken; deciding which circuits that invalidates and how to route
// around it is internal/route's job, and the detect/repair/resume loop
// lives in internal/core.

// SeveredSegmentDB is the extra insertion loss at which a degraded
// bus-lane segment is treated as severed: no budget can absorb it, so
// pathfinding prunes the segment outright instead of discovering the
// infeasibility circuit by circuit.
const SeveredSegmentDB = 20.0

// FailChip marks the tile's stacked accelerator chip as failed. The
// photonic substrate underneath keeps working — circuits may still
// pass through the tile's buses — but the chip can no longer terminate
// circuits or participate in collectives.
func (t *Tile) FailChip() { t.chipFailed = true }

// ChipHealthy reports whether the tile's chip is alive.
func (t *Tile) ChipHealthy() bool { return !t.chipFailed }

// FailLasers burns out n of the tile's wavelength lasers. Lasers
// already reserved by circuits count: the caller is expected to
// invalidate circuits whose width no longer fits. Failing more lasers
// than exist saturates at the total.
func (t *Tile) FailLasers(n int) {
	if n <= 0 {
		return
	}
	t.lasersFailed += n
	if t.lasersFailed > t.lasers {
		t.lasersFailed = t.lasers
	}
}

// FailedLasers returns how many lasers have burned out.
//
// Rack.Health aggregates it; it is public as the per-component view
// behind that summary.
func (t *Tile) FailedLasers() int { return t.lasersFailed }

// RepairChip replaces the tile's failed accelerator chip with a
// working one; the tile can terminate circuits again. Repairing a
// healthy chip is a no-op.
func (t *Tile) RepairChip() { t.chipFailed = false }

// RepairLasers restores n burned-out lasers (a Tx/Rx block swap).
// Restoring more lasers than have failed saturates at zero failed.
func (t *Tile) RepairLasers(n int) {
	if n <= 0 {
		return
	}
	t.lasersFailed -= n
	if t.lasersFailed < 0 {
		t.lasersFailed = 0
	}
}

// RepairSwitch replaces stuck tile switch i; it keeps its programmed
// port and accepts Program again.
func (t *Tile) RepairSwitch(i int) error {
	if i < 0 || i >= SwitchesPerTile {
		return fmt.Errorf("wafer: switch %d out of range [0, %d)", i, SwitchesPerTile)
	}
	t.Switches[i].stuck = false
	return nil
}

// FailSwitch freezes tile switch i in its current state: established
// paths through it keep working, but Program returns an error until
// the hardware is replaced.
func (t *Tile) FailSwitch(i int) error {
	if i < 0 || i >= SwitchesPerTile {
		return fmt.Errorf("wafer: switch %d out of range [0, %d)", i, SwitchesPerTile)
	}
	t.Switches[i].stuck = true
	return nil
}

// SwitchHealthy reports whether tile switch i can still be
// reprogrammed.
func (t *Tile) SwitchHealthy(i int) bool {
	return i >= 0 && i < SwitchesPerTile && !t.Switches[i].stuck
}

// Stuck reports whether the switch has failed into its current state.
//
// Rack.Health aggregates it; it is public as the per-component view
// behind that summary.
func (s *Switch13) Stuck() bool { return s.stuck }

// DegradeSegment adds extra insertion loss at one tile position of a
// bus lane (all buses of the lane crossing that position pay it — the
// defect model is a contaminated routing region, not a single
// waveguide). Losses accumulate across repeated faults.
func (w *Wafer) DegradeSegment(o Orient, lane, pos int, extraDB float64) error {
	i, err := w.degradedIndex(o, lane, pos)
	if err != nil {
		return err
	}
	if extraDB < 0 {
		return fmt.Errorf("wafer: negative degradation %g dB", extraDB)
	}
	w.markDegraded(i)
	w.degraded[i] += extraDB
	return nil
}

// markDegraded records dense position i as degraded, allocating the
// arrays on the wafer's first fault.
func (w *Wafer) markDegraded(i int) {
	if w.degraded == nil {
		n := 2 * w.cfg.Tiles()
		w.degraded = make([]float64, n)
		w.degradedSet = make([]bool, n)
	}
	if !w.degradedSet[i] {
		w.degradedSet[i] = true
		w.numDegraded++
	}
}

// RepairSegment clears all fault-induced extra loss at one tile
// position of a bus lane — the contaminated region is re-worked.
// Repairing an undegraded position is a no-op.
func (w *Wafer) RepairSegment(o Orient, lane, pos int) error {
	i, err := w.degradedIndex(o, lane, pos)
	if err != nil {
		return err
	}
	if w.degraded != nil && w.degradedSet[i] {
		w.degraded[i] = 0
		w.degradedSet[i] = false
		w.numDegraded--
	}
	return nil
}

// degradedIndex validates one bus-lane position and returns its index
// in the dense degradation arrays.
func (w *Wafer) degradedIndex(o Orient, lane, pos int) (int, error) {
	if _, err := w.lane(o, lane); err != nil {
		return 0, err
	}
	base, limit, _ := w.laneSlots(o, lane)
	if pos < 0 || pos >= limit {
		return 0, fmt.Errorf("wafer: %s lane %d position %d out of range [0, %d)", o, lane, pos, limit)
	}
	return base + pos, nil
}

// laneSlots returns where a lane's positions start in the dense
// degradation arrays and how many it has; ok is false for a lane the
// wafer does not have.
func (w *Wafer) laneSlots(o Orient, lane int) (base, limit int, ok bool) {
	switch {
	case o == Horizontal && lane >= 0 && lane < w.cfg.Rows:
		return lane * w.cfg.Cols, w.cfg.Cols, true
	case o == Vertical && lane >= 0 && lane < w.cfg.Cols:
		return w.cfg.Tiles() + lane*w.cfg.Rows, w.cfg.Rows, true
	}
	return 0, 0, false
}

// degradedPosition inverts degradedIndex.
func (w *Wafer) degradedPosition(i int) (o Orient, lane, pos int) {
	if tiles := w.cfg.Tiles(); i >= tiles {
		i -= tiles
		return Vertical, i / w.cfg.Rows, i % w.cfg.Rows
	}
	return Horizontal, i / w.cfg.Cols, i % w.cfg.Cols
}

// spanDegradation returns the dense degradation values of the span's
// positions, clipped to the lane. It is nil when nothing on the wafer
// is degraded or the lane does not exist: positions off the grid carry
// no loss.
func (w *Wafer) spanDegradation(o Orient, lane int, span Interval) []float64 {
	base, limit, ok := w.laneSlots(o, lane)
	lo, hi := max(span.Lo, 0), min(span.Hi, limit-1)
	if w.numDegraded == 0 || !ok || lo > hi {
		return nil
	}
	return w.degraded[base+lo : base+hi+1]
}

// SpanExtraLossDB sums the fault-induced extra loss a circuit crossing
// the span of the lane would pay.
func (w *Wafer) SpanExtraLossDB(o Orient, lane int, span Interval) float64 {
	total := 0.0
	for _, db := range w.spanDegradation(o, lane, span) {
		total += db
	}
	return total
}

// SpanSevered reports whether any position of the span has degraded
// past SeveredSegmentDB and must be pruned from pathfinding.
func (w *Wafer) SpanSevered(o Orient, lane int, span Interval) bool {
	for _, db := range w.spanDegradation(o, lane, span) {
		if db >= SeveredSegmentDB {
			return true
		}
	}
	return false
}

// DegradedSegments counts tile positions carrying fault-induced loss,
// for health reporting.
//
// Rack.Health aggregates it; it is public as the per-component view
// behind that summary.
func (w *Wafer) DegradedSegments() int { return w.numDegraded }

// HealthReport summarizes a rack's component health for dashboards
// and experiment output.
type HealthReport struct {
	// FailedChips and StuckSwitches count dead components.
	FailedChips, StuckSwitches int
	// FailedLasers is the total burned-out lasers across tiles.
	FailedLasers int
	// DegradedSegments counts bus-lane positions with extra loss.
	DegradedSegments int
}

// String renders the report in one line.
func (h HealthReport) String() string {
	return fmt.Sprintf("chips failed=%d, switches stuck=%d, lasers dead=%d, segments degraded=%d",
		h.FailedChips, h.StuckSwitches, h.FailedLasers, h.DegradedSegments)
}

// Health scans the rack's component state.
func (r *Rack) Health() HealthReport {
	var h HealthReport
	for _, w := range r.wafers {
		h.DegradedSegments += w.DegradedSegments()
		for _, t := range w.tiles {
			if !t.ChipHealthy() {
				h.FailedChips++
			}
			h.FailedLasers += t.FailedLasers()
			for i := range t.Switches {
				if t.Switches[i].Stuck() {
					h.StuckSwitches++
				}
			}
		}
	}
	return h
}
