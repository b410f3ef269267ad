package invariant

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Mutations returns how many top-level mutations the auditor has
// observed.
func (d *Auditor) Mutations() int { return d.mutations }

// FullPasses returns how many full passes the auditor has run.
func (d *Auditor) FullPasses() int { return d.fullPasses }

// Violations returns a copy of the retained violations (at most
// maxRecorded; Count reports the true total).
func (d *Auditor) Violations() []Violation {
	return append([]Violation(nil), d.recorded...)
}
