package failure

import (
	"fmt"

	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Test-only helpers: production code never calls them, so they live
// in the test build.

// MultiOpticalRepair repairs several simultaneous chip failures on
// one shared photonic rack: each failure gets its own replacement
// chip and repair circuits, and every circuit across every plan is
// mutually disjoint (they share one allocator). failures are
// (rack, local chip) pairs.
func (f *Fabric) MultiOpticalRepair(failures [][2]int, width int, now unit.Seconds, seed uint64) ([]*OpticalPlan, error) {
	cfg := wafer.DefaultConfig()
	wafers := (f.Size() + cfg.Tiles() - 1) / cfg.Tiles()
	hw, err := wafer.NewRack(cfg, wafers)
	if err != nil {
		return nil, err
	}
	alloc := route.NewAllocator(hw, rng.New(seed))
	alloc.CheckBudget = true

	for _, fl := range failures {
		f.Fail(f.Global(fl[0], fl[1]))
	}
	taken := map[int]bool{}
	var plans []*OpticalPlan
	for i, fl := range failures {
		eps, err := f.RepairEndpoints(fl[0], fl[1])
		if err != nil {
			return nil, fmt.Errorf("failure: failure %d: %w", i, err)
		}
		var plan *OpticalPlan
		var lastErr error
		for _, repl := range f.FreeChips() {
			if taken[repl] {
				continue
			}
			plan, lastErr = f.tryOptical(alloc, eps, repl, width, now)
			if lastErr == nil {
				break
			}
			plan = nil
		}
		if plan == nil {
			return nil, fmt.Errorf("failure: failure %d unrepairable: %w", i, lastErr)
		}
		taken[plan.Replacement] = true
		plans = append(plans, plan)
	}
	return plans, nil
}
