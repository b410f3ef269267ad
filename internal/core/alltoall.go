package core

import (
	"fmt"

	"lightpath/internal/collective"
	"lightpath/internal/netsim"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// PlanAllToAll plans an AllToAll over slice si of the allocation: each
// chip exchanges perChip bytes (split into uniform blocks) with every
// other chip of the slice — the §5 dynamic-traffic pattern. On the
// electrical torus each pair routes dimension-ordered over the
// direct-connect links, contending wherever paths overlap; on the
// photonic fabric every step's pairing gets dedicated circuits, at
// the price of reprogramming the MZIs each step.
func (f *Fabric) PlanAllToAll(a *torus.Allocation, si int, perChip unit.Bytes) (*CollectivePlan, error) {
	if si < 0 || si >= len(a.Slices()) {
		return nil, fmt.Errorf("core: slice index %d out of range", si)
	}
	s := a.Slices()[si]
	chips := s.Chips(f.torus)
	if len(chips) < 2 {
		return nil, fmt.Errorf("core: slice %q has %d chips; all-to-all needs 2+", s.Name, len(chips))
	}
	const elemBytes = 4
	// At least one element per chip, then uniform blocks: round up to
	// a multiple of the chip count.
	n := max(int(perChip/elemBytes), len(chips))
	if rem := n % len(chips); rem != 0 {
		n += len(chips) - rem
	}

	elecSched, err := collective.AllToAll(s.Name+"/a2a-elec", chips, n, elemBytes, false)
	if err != nil {
		return nil, err
	}
	optSched, err := collective.AllToAll(s.Name+"/a2a-opt", chips, n, elemBytes, true)
	if err != nil {
		return nil, err
	}

	plan := &CollectivePlan{Algorithm: "all-to-all", ActiveDims: 1, Schedule: optSched}
	if plan.Electrical, err = f.params.Electrical(elecSched); err != nil {
		return nil, err
	}
	if plan.Optical, err = f.params.Optical(optSched, 1); err != nil {
		return nil, err
	}
	pathOf := func(tr collective.Transfer) []torus.Link {
		return f.torus.DORPath(tr.From, tr.To)
	}
	linkBW := f.params.ChipBandwidth / unit.BitRate(f.params.PhysDims)
	if plan.ElectricalTime, err = f.exec.Electrical(elecSched, f.torus, linkBW, pathOf, netsim.ExecOptions{Alpha: f.params.Alpha}); err != nil {
		return nil, err
	}
	if plan.OpticalTime, err = f.exec.Optical(optSched, f.params.ChipBandwidth, netsim.ExecOptions{Alpha: f.params.Alpha, Reconfig: f.params.Reconfig}); err != nil {
		return nil, err
	}
	return plan, nil
}
