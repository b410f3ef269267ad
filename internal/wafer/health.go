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

// segKey identifies one tile position of one bus lane.
type segKey struct {
	o    Orient
	lane int
	pos  int
}

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
	if _, err := w.lane(o, lane); err != nil {
		return err
	}
	limit := w.cfg.Cols
	if o == Vertical {
		limit = w.cfg.Rows
	}
	if pos < 0 || pos >= limit {
		return fmt.Errorf("wafer: %s lane %d position %d out of range [0, %d)", o, lane, pos, limit)
	}
	if extraDB < 0 {
		return fmt.Errorf("wafer: negative degradation %g dB", extraDB)
	}
	if w.degraded == nil {
		w.degraded = make(map[segKey]float64)
	}
	w.degraded[segKey{o: o, lane: lane, pos: pos}] += extraDB
	return nil
}

// RepairSegment clears all fault-induced extra loss at one tile
// position of a bus lane — the contaminated region is re-worked.
// Repairing an undegraded position is a no-op.
func (w *Wafer) RepairSegment(o Orient, lane, pos int) error {
	if _, err := w.lane(o, lane); err != nil {
		return err
	}
	limit := w.cfg.Cols
	if o == Vertical {
		limit = w.cfg.Rows
	}
	if pos < 0 || pos >= limit {
		return fmt.Errorf("wafer: %s lane %d position %d out of range [0, %d)", o, lane, pos, limit)
	}
	delete(w.degraded, segKey{o: o, lane: lane, pos: pos})
	return nil
}

// SpanExtraLossDB sums the fault-induced extra loss a circuit crossing
// the span of the lane would pay.
func (w *Wafer) SpanExtraLossDB(o Orient, lane int, span Interval) float64 {
	total := 0.0
	for pos := span.Lo; pos <= span.Hi; pos++ {
		total += w.degraded[segKey{o: o, lane: lane, pos: pos}]
	}
	return total
}

// SpanSevered reports whether any position of the span has degraded
// past SeveredSegmentDB and must be pruned from pathfinding.
func (w *Wafer) SpanSevered(o Orient, lane int, span Interval) bool {
	for pos := span.Lo; pos <= span.Hi; pos++ {
		if w.degraded[segKey{o: o, lane: lane, pos: pos}] >= SeveredSegmentDB {
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
func (w *Wafer) DegradedSegments() int { return len(w.degraded) }

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
