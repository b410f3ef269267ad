package route

// Test-only hooks for the plan cache. They live in the internal test
// build so the external route_test package (which must stay external to
// attach the invariant auditor without an import cycle) can drive the
// uncached reference path and normalize snapshots for byte comparison.

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
