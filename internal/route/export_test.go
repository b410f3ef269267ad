package route

import "lightpath/internal/unit"

// Test-only hooks for the plan cache and attempt pruning. They live in
// the internal test build so the external route_test package (which
// must stay external to attach the invariant auditor without an import
// cycle) can drive the uncached reference path and normalize snapshots
// for byte comparison, and so the try-every-plan reference loop ships
// in no production build.

// DisablePlanCache routes every plansFor call through the uncached
// candidatePlans path. The differential tests run the same workload
// with and without it and demand bit-identical outcomes.
func (a *Allocator) DisablePlanCache() { a.noPlanCache = true }

// ClearPlanCacheForTest drops the cache table, arena and counters, so
// two allocators that differ only in caching encode identical snapshot
// bytes.
func (a *Allocator) ClearPlanCacheForTest() { a.resetPlanCache() }

// PlanCacheValidPairs exposes the valid-entry count for invalidation
// assertions.
func (a *Allocator) PlanCacheValidPairs() int { return a.planCacheValidPairs() }

// PlanCacheEpoch returns the current fabric epoch (0 if the cache has
// never been consulted), for invalidation assertions.
func (a *Allocator) PlanCacheEpoch() uint64 { return a.plans.epoch }

// establishExhaustive is Establish without attempt pruning: it tries
// every candidate plan in order until one commits.
// TestPrunedEstablishMatchesExhaustive drives it as the reference arm.
func (a *Allocator) establishExhaustive(req Request, now unit.Seconds) (*Circuit, error) {
	if err := a.checkRequest(req); err != nil {
		return nil, err
	}
	a.beginOp()
	defer a.endOp("establish")
	var lastErr error = ErrNoPath
	//lightpath:arena
	for _, p := range a.plansFor(req.A, req.B) {
		c, err := a.commit(req, p, now)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, &noPathError{a: req.A, b: req.B, errs: [2]error{ErrNoPath, lastErr}}
}

// reestablishExhaustive is Reestablish (EstablishDegraded's
// width-halving loop) over establishExhaustive.
func (a *Allocator) reestablishExhaustive(c *Circuit, now unit.Seconds) (*Circuit, error) {
	var lastErr error
	for width := c.Width; width >= 1; width /= 2 {
		nc, err := a.establishExhaustive(Request{A: c.A, B: c.B, Width: width}, now)
		if err == nil {
			return nc, nil
		}
		lastErr = err
		if !shouldDegrade(err) {
			break
		}
	}
	return nil, lastErr
}

// prunes reports whether Establish would skip at least one candidate
// plan of req in the allocator's current state.
func (a *Allocator) prunes(req Request) bool {
	plans := a.candidatePlans(req.A, req.B)
	if len(plans) > 1 && a.endpointDoomed(req) {
		return true
	}
	for _, p := range plans[:max(len(plans)-1, 0)] {
		if a.fiberRowFull(p) {
			return true
		}
	}
	return false
}
