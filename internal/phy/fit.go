package phy

import (
	"errors"
	"math"

	"lightpath/internal/unit"
)

// This file contains the curve-fitting and statistics utilities the
// paper uses to reduce raw traces to reported numbers: an exponential
// rise fit for the MZI step response (Figure 3a) and a Gaussian fit of
// the stitch-loss histogram (Figure 3b).

// ErrBadFit reports that a fit could not be computed from the data
// provided (too few points, degenerate values, ...).
var ErrBadFit = errors.New("phy: insufficient or degenerate data for fit")

// ExpRiseFit is the result of fitting v(t) = A*(1 - exp(-t/Tau)) to a
// step-response trace.
type ExpRiseFit struct {
	A   float64      // asymptotic amplitude
	Tau unit.Seconds // time constant

	// Residual is the root-mean-square error of the fit against the
	// data, in normalized amplitude units.
	Residual float64
}

// SettlingTime returns the time for the fitted response to come within
// the given fraction of its final value (e.g. 0.02 for the 2%
// criterion). This is the reconfiguration latency the paper reports.
func (f ExpRiseFit) SettlingTime(fraction float64) unit.Seconds {
	if fraction <= 0 || fraction >= 1 {
		panic("phy: settling fraction must be in (0, 1)")
	}
	return unit.Seconds(-math.Log(fraction)) * f.Tau
}

// FitExponentialRise fits v(t) = A*(1 - exp(-t/tau)) to the trace.
//
// The estimator first takes A as the mean of the final 10% of samples
// (the settled tail), then linearizes: log(A - v) = log(A) - t/tau, and
// solves the line by least squares over samples that have not yet
// settled. This mirrors how a lab would reduce the Figure 3a scope
// trace. Samples where v >= A (noise excursions above the asymptote)
// are excluded from the linearized regression.
func FitExponentialRise(trace []Sample) (ExpRiseFit, error) {
	if len(trace) < 8 {
		return ExpRiseFit{}, ErrBadFit
	}
	// Asymptote estimate from the settled tail.
	tail := len(trace) / 10
	if tail < 2 {
		tail = 2
	}
	a := 0.0
	for _, s := range trace[len(trace)-tail:] {
		a += s.V
	}
	a /= float64(tail)
	if a <= 0 {
		return ExpRiseFit{}, ErrBadFit
	}

	// Linearized least squares on log(A - v) vs t, using points in the
	// informative band (between 5% and 95% of the asymptote). The log
	// transform amplifies noise where A - v is small, so weight each
	// point by (A - v)^2 — the standard variance-stabilizing weight for
	// log-transformed exponential fits.
	var sw, sx, sy, sxx, sxy float64
	n := 0
	for _, s := range trace {
		if s.V < 0.05*a || s.V > 0.95*a {
			continue
		}
		residualAmp := a - s.V
		w := residualAmp * residualAmp
		y := math.Log(residualAmp)
		x := float64(s.T)
		sw += w
		sx += w * x
		sy += w * y
		sxx += w * x * x
		sxy += w * x * y
		n++
	}
	if n < 4 {
		return ExpRiseFit{}, ErrBadFit
	}
	denom := sw*sxx - sx*sx
	if denom == 0 {
		return ExpRiseFit{}, ErrBadFit
	}
	slope := (sw*sxy - sx*sy) / denom
	if slope >= 0 {
		return ExpRiseFit{}, ErrBadFit
	}
	fit := ExpRiseFit{A: a, Tau: unit.Seconds(-1 / slope)}

	// RMS residual over the whole trace.
	var sse float64
	for _, s := range trace {
		pred := fit.A * (1 - math.Exp(-float64(s.T/fit.Tau)))
		d := s.V - pred
		sse += d * d
	}
	fit.Residual = math.Sqrt(sse / float64(len(trace)))
	return fit, nil
}

// Histogram is a fixed-width binning of scalar samples.
type Histogram struct {
	Min, Max float64 // range covered by the bins
	Counts   []int   // per-bin sample counts
	N        int     // total samples binned (excluding out-of-range)
}

// NewHistogram bins the samples into the given number of equal-width
// bins over [min, max]. Samples outside the range are dropped. It
// panics if bins <= 0 or max <= min.
func NewHistogram(samples []float64, min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic("phy: histogram with no bins")
	}
	if max <= min {
		panic("phy: histogram with empty range")
	}
	h := &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
	width := (max - min) / float64(bins)
	for _, s := range samples {
		if s < min || s > max {
			continue
		}
		i := int((s - min) / width)
		if i == bins { // s == max lands in the last bin
			i = bins - 1
		}
		h.Counts[i]++
		h.N++
	}
	return h
}

// BinCenters returns the center value of each bin.
func (h *Histogram) BinCenters() []float64 {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	centers := make([]float64, len(h.Counts))
	for i := range centers {
		centers[i] = h.Min + width*(float64(i)+0.5)
	}
	return centers
}

// Densities returns the normalized density of each bin (integrates
// to 1 over the histogram range when multiplied by the bin width).
func (h *Histogram) Densities() []float64 {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	d := make([]float64, len(h.Counts))
	if h.N == 0 {
		return d
	}
	for i, c := range h.Counts {
		d[i] = float64(c) / (float64(h.N) * width)
	}
	return d
}

// GaussianFit is the result of fitting a normal density to data.
type GaussianFit struct {
	Mean, SD float64

	// ChiSquare is the goodness-of-fit statistic of the histogram
	// against the fitted density (smaller is better).
	ChiSquare float64
}

// Density evaluates the fitted normal density at x.
//
// FitGaussian's chi-square evaluates it; it is public so a fit can be
// checked against other histograms.
func (g GaussianFit) Density(x float64) float64 {
	if g.SD <= 0 {
		return 0
	}
	z := (x - g.Mean) / g.SD
	return math.Exp(-z*z/2) / (g.SD * math.Sqrt(2*math.Pi))
}

// FitGaussian fits a normal distribution to the samples by maximum
// likelihood (sample mean and standard deviation) and reports the
// chi-square of the fit against a histogram of the data, mirroring the
// distribution-plus-fit presentation of the paper's Figure 3b.
func FitGaussian(samples []float64, hist *Histogram) (GaussianFit, error) {
	if len(samples) < 2 {
		return GaussianFit{}, ErrBadFit
	}
	var sum, sumsq float64
	for _, s := range samples {
		sum += s
		sumsq += s * s
	}
	n := float64(len(samples))
	mean := sum / n
	variance := (sumsq - n*mean*mean) / (n - 1)
	if variance <= 0 {
		return GaussianFit{}, ErrBadFit
	}
	fit := GaussianFit{Mean: mean, SD: math.Sqrt(variance)}

	if hist != nil && hist.N > 0 {
		centers := hist.BinCenters()
		densities := hist.Densities()
		for i := range centers {
			expected := fit.Density(centers[i])
			if expected < 1e-12 {
				continue
			}
			d := densities[i] - expected
			fit.ChiSquare += d * d / expected
		}
	}
	return fit, nil
}

// Mean returns the arithmetic mean of the samples (0 for no samples).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// StdDev returns the sample standard deviation (0 for fewer than two
// samples).
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	var sse float64
	for _, s := range samples {
		d := s - m
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(samples)-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the samples
// using linear interpolation. The input need not be sorted; a copy is
// sorted internally. It panics on an empty input or out-of-range p.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("phy: percentile of empty sample set")
	}
	if p < 0 || p > 100 {
		panic("phy: percentile out of [0, 100]")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	insertionSort(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// insertionSort sorts in place. Sample sets here are small (histogram
// inputs); avoiding the sort package keeps this file dependency-free,
// but fall back to a shell-sort gap sequence for larger inputs so the
// cost stays near O(n^1.3).
func insertionSort(s []float64) {
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(s); i++ {
			v := s[i]
			j := i
			for ; j >= gap && s[j-gap] > v; j -= gap {
				s[j] = s[j-gap]
			}
			s[j] = v
		}
	}
}
