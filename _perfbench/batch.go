package main

import (
	"time"
)

// batchRun is what a batch workload's measured window yields: one
// host-time sample per batch, the operations the batches completed,
// and, in a traced run, the CPU profile's layer shares.
type batchRun struct {
	times []float64 // batch host times, µs
	ops   int64
	wall  time.Duration
	rss   float64
	// layers holds a traced run's per-layer values so far (CPU shares,
	// runtime deltas, tracing overhead); cum is the profile's
	// cumulative share per layer.
	layers, cum map[string]float64
}

// runBatches calls batch(0), batch(1), … until the budget is spent
// (at least once) and returns the samples; batch returns the
// operations it completed. A traced run first runs batch(0) untraced
// as the overhead baseline, then spans every batch as spanName under a
// CPU profile, and writes the spans out at the end.
func runBatches(opts options, spanName string, batch func(k int) (int64, error)) (*batchRun, error) {
	timed := func(k int) (int64, time.Duration, error) {
		t0 := time.Now()
		ops, err := batch(k)
		return ops, time.Since(t0), err
	}
	var (
		rec      *recorder
		prof     *cpuProfile
		baseline time.Duration
		rt0      runtimeSample
	)
	if opts.trace {
		_, d, err := timed(0)
		if err != nil {
			return nil, err
		}
		baseline = d
		rec = newRecorder(64)
		rt0 = sampleRuntime()
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	br := &batchRun{}
	resetPeakRSS()
	for start := time.Now(); len(br.times) == 0 || time.Since(start) < opts.budget(); {
		k := len(br.times)
		var sp int
		if rec != nil {
			sp = rec.begin(spanName, -1, int64(k))
		}
		ops, d, err := timed(k)
		if rec != nil {
			rec.end(sp)
		}
		if err != nil {
			return nil, err
		}
		br.times = append(br.times, float64(d)/float64(time.Microsecond))
		br.wall += d
		br.ops += ops
	}
	br.rss = peakRSSMB()
	if !opts.trace {
		return br, nil
	}
	rt1 := sampleRuntime()
	flat, cum, err := prof.shares()
	if err != nil {
		return nil, err
	}
	br.layers, br.cum = newLayerValues(), cum
	runtimeDelta(br.layers, rt0, rt1, br.ops)
	setCPUShares(br.layers, flat)
	// Batch 0 ran both untraced and traced: the same work twice.
	base := float64(baseline) / float64(time.Microsecond)
	br.layers["trace.overhead_frac"] = ratio(br.times[0]-base, base)
	return br, rec.write(opts.spans)
}

// endToEnd reports a batch workload's end-to-end metrics: the batch
// is the unit of latency, and ops_per_s counts operations over the
// summed batch time.
func (br *batchRun) endToEnd(setup time.Duration) map[string]float64 {
	return map[string]float64{
		"setup_s":     setup.Seconds(),
		"p50_us":      median(br.times),
		"p90_us":      p90(br.times),
		"ops_per_s":   float64(br.ops) / br.wall.Seconds(),
		"peak_rss_mb": br.rss,
	}
}
