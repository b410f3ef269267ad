package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// spec names one reported metric. The tables below are the benchmark's
// metric catalog; BENCHMARK.json lists the same names and units (a
// test keeps the two in step).
type spec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload never calls into reads 0.
var perLayer = []spec{
	{"ctrl.handler.submit_ns_p50", "ns"},
	{"ctrl.handler.submit_ns_p99", "ns"},
	{"ctrl.wire.ns_p50", "ns"},
	{"ctrl.client.call_ns_p99", "ns"},
	{"ctrl.wire.codec_ns", "ns"},
	{"ctrl.self_frac", "ratio"},
	{"ctrl.admission.shed_frac", "ratio"},
	{"ctrl.admission.deadline_frac", "ratio"},
	{"ctrl.admission.breaker_frac", "ratio"},
	{"ctrl.server.queue_depth_mean", "count"},
	{"ctrl.reroutes", "count"},
	{"fail_frac", "ratio"},
	{"route.plan_cache.hit_ratio", "ratio"},
	{"route.nopath_frac", "ratio"},
	{"invariant.audit_ns", "ns"},
	{"invariant.audits_per_mutation", "ratio"},
	{"invariant.busy_frac", "ratio"},
	{"snapshot.save_ns_p50", "ns"},
	{"snapshot.load_ns", "ns"},
	{"snapshot.bytes", "bytes"},
	{"loadgen.events", "count"},
	{"loadgen.retries_per_request", "ratio"},
	{"chaos.faults", "count"},
	{"netsim.components", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"invariant.cpu_frac", "ratio"},
	{"route.cpu_frac", "ratio"},
	{"wafer.cpu_frac", "ratio"},
	{"ctrl.cpu_frac", "ratio"},
	{"loadgen.cpu_frac", "ratio"},
	{"snapshot.cpu_frac", "ratio"},
	{"netsim.cpu_frac", "ratio"},
	{"topo.cpu_frac", "ratio"},
	{"engine.cpu_frac", "ratio"},
	{"runtime.cpu_frac", "ratio"},
	{"unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// newLayerValues returns a per-layer value map with every metric at 0,
// the reading for a layer the workload bypasses.
func newLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		v[s.name] = 0
	}
	return v
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted.
func percentile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// histSpan is the range, in ns, that latencyHist counts per
// nanosecond.
const histSpan = 100_000

// latencyHist records round-trip times exactly, to the nanosecond: a
// counter per nanosecond below histSpan and raw samples above it. A
// window keeps under half a megabyte however many calls it makes, so
// the benchmark's own bookkeeping does not weigh on the peak resident
// set it reports.
type latencyHist struct {
	counts []uint32
	over   []time.Duration
	n      int
}

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histSpan)} }

func (h *latencyHist) add(d time.Duration) {
	h.n++
	if d >= 0 && d < histSpan {
		h.counts[d]++
		return
	}
	h.over = append(h.over, d)
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1).
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int(q*float64(h.n)+0.999999999), 1), h.n)
	for d, c := range h.counts {
		if rank -= int(c); rank <= 0 {
			return time.Duration(d)
		}
	}
	slices.Sort(h.over)
	return h.over[rank-1]
}

// p90 is the nearest-rank 90th percentile of xs, left unsorted.
func p90(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.90)
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianTime runs f reps×batch times and returns the median over the
// reps of each batch's mean time per call. Set-up is a one-off cost,
// so a run repeats it to steady the reading.
func medianTime(reps, batch int, f func() error) (time.Duration, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC() // each rep starts from a collected heap
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		times = append(times, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(times)), nil
}

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's peak-resident-set count (VmHWM), so that peakRSSMB reports
// the measured window rather than the set-up before it. Where the
// reset is unsupported the peak covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MB
// (VmHWM), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// CPU counters.
type runtimeSample struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

// sampleRuntime reads the counters runtimeDelta compares.
func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[1].Value.Float64()
	}
	return out
}

// runtimeDelta sets runtime.allocs_per_op and runtime.gc_cpu_frac for
// the interval between two samples in which ops operations completed.
func runtimeDelta(v map[string]float64, before, after runtimeSample, ops int64) {
	v["runtime.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), float64(ops))
	v["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
}
