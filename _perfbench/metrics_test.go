package main

import (
	"slices"
	"testing"
	"time"

	"lightpath/internal/rng"
)

// TestLatencyHistMatchesSortedSamples checks the histogram's quantiles
// against nearest-rank percentiles of the raw samples, with samples on
// both sides of histSpan.
func TestLatencyHistMatchesSortedSamples(t *testing.T) {
	r := rng.New(3)
	h := newLatencyHist()
	var raw []int64
	for i := 0; i < 50000; i++ {
		d := time.Duration(r.Exp(30_000))
		if i%97 == 0 {
			d += 2 * histSpan
		}
		h.add(d)
		raw = append(raw, int64(d))
	}
	slices.Sort(raw)
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := int64(h.quantile(q)), percentile(raw, q); got != want {
			t.Errorf("q=%v: histogram %d, sorted samples %d", q, got, want)
		}
	}
	if h.n != len(raw) {
		t.Errorf("counted %d samples, added %d", h.n, len(raw))
	}
}
