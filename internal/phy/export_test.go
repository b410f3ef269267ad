package phy

import (
	"math"

	"lightpath/internal/unit"
)

// Test-only helpers: production code never calls them, so they live
// in the test build.

// CrossCoupling returns the fraction of input power emerging at the
// cross port at simulated time now, in [0, 1]. An ideal settled Cross
// MZI returns ~1; an ideal settled Bar MZI returns ~0 (limited by the
// extinction ratio).
func (m *MZI) CrossCoupling(now unit.Seconds) float64 {
	m.settle(now)
	// Ideal interferometer: cross power = sin^2(phase/2).
	ideal := math.Sin(m.phase / 2)
	cross := ideal * ideal
	// Fold in finite extinction: the achievable range is
	// [leak, 1-leak] rather than [0, 1].
	leak := unit.Decibel(-m.extinction()).Linear()
	return leak + cross*(1-2*leak)
}

// BERWithExtinction estimates OOK BER including the extinction
// penalty of the cascaded MZI switches: the received power is
// derated by ExtinctionPenaltyDB before the thermal-noise Q model.
func BERWithExtinction(rx, sensitivity unit.DBm, extinction unit.Decibel) float64 {
	return BERForReceivedPower(rx.Sub(ExtinctionPenaltyDB(extinction)), sensitivity)
}

// ExtinctionPenaltyDB returns the power penalty of a finite
// transmitter/switch extinction ratio for on-off keying: with
// extinction r (linear power ratio of "one" to residual "zero"), the
// eye closes by a factor (r-1)/(r+1), costing
// -10 log10((r-1)/(r+1)) dB of effective receiver sensitivity. An
// ideal infinite extinction costs 0 dB; 10 dB extinction costs
// ~0.87 dB. It panics for extinction <= 1 (no eye at all).
func ExtinctionPenaltyDB(extinction unit.Decibel) unit.Decibel {
	r := extinction.Linear()
	if r <= 1 {
		panic("phy: extinction ratio must exceed 1 (0 dB)")
	}
	return unit.FromLinear((r + 1) / (r - 1))
}
