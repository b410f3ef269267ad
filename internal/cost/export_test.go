package cost

import "lightpath/internal/unit"

// Test-only helpers: production code never calls them, so they live
// in the test build.

// AllReduceBetaLowerBound is twice the ReduceScatter bound (D
// ReduceScatters + D AllGathers move 2(p-1)/p of the buffer per chip).
func AllReduceBetaLowerBound(n unit.Bytes, p int, bw unit.BitRate) unit.Seconds {
	return 2 * RingReduceScatterBetaLowerBound(n, p, bw)
}

// RingReduceScatterBetaLowerBound returns the beta-cost lower bound of
// a ReduceScatter over p chips of an N-byte buffer at per-flow
// bandwidth bw: (p-1)/p * N / bw (§4.1: "its beta-cost lower bound of
// ~ N*beta").
func RingReduceScatterBetaLowerBound(n unit.Bytes, p int, bw unit.BitRate) unit.Seconds {
	if p < 2 {
		return 0
	}
	return bw.TimeFor(n * unit.Bytes(p-1) / unit.Bytes(p))
}
