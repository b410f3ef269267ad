package invariant

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Mutations returns how many top-level mutations the auditor has
// observed.
func (d *Auditor) Mutations() int { return d.mutations }
