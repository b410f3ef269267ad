package unit

import "math"

// Test-only helpers: production code never calls them, so they live
// in the test build.

// DBmFromMilliwatts converts an absolute power in mW to dBm.
func DBmFromMilliwatts(mw float64) DBm { return DBm(10 * math.Log10(mw)) }
