package chaos

// Test-only helpers: production code never calls them, so they live
// in the test build.

// CountByClass tallies a schedule per class, for experiment summaries.
func CountByClass(faults []Fault) [NumClasses]int {
	var out [NumClasses]int
	for _, f := range faults {
		if f.Class >= 0 && int(f.Class) < NumClasses {
			out[f.Class]++
		}
	}
	return out
}
