package sched

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Leader returns the currently best-weighted expert's threshold.
func (h *HedgePolicy) Leader() float64 {
	best := 0
	for i := range h.weights {
		if h.weights[i] > h.weights[best] {
			best = i
		}
	}
	return h.experts[best].Threshold
}
