package experiments

import (
	"testing"

	"lightpath/internal/engine"
	"lightpath/internal/unit"
)

// The campaign benchmarks behind `make bench`: each runs one
// Monte-Carlo campaign end to end and reports exactly one paper
// metric via b.ReportMetric — a seed-deterministic simulation
// quantity that `make bench-smoke` diffs against BENCH_baseline.json.
// The Seq/Par pairs measure the engine's fan-out: on a multi-core
// machine Par's ns/op should sit well below Seq's, while the paper
// metric is identical by the determinism contract.

// benchSequential forces the engine sequential for one benchmark.
func benchSequential(b *testing.B) {
	prev := engine.SetWorkers(1)
	b.Cleanup(func() { engine.SetWorkers(prev) })
}

// warmup runs one untimed campaign before the measured loop: under
// `make bench`'s short time budget the expensive campaigns run only
// once or a handful of times, where a cold first iteration would
// charge heap growth and page faults to the measured runs.
func warmup(b *testing.B, run func() error) {
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

func BenchmarkTenantSweepSeq(b *testing.B) {
	benchSequential(b)
	var res TenantSweepResult
	warmup(b, func() error { _, err := TenantSweep(6, 20); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = TenantSweep(6, 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ElecMean, "elec_mean_util")
}

func BenchmarkTenantSweepPar(b *testing.B) {
	var res TenantSweepResult
	warmup(b, func() error { _, err := TenantSweep(6, 20); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = TenantSweep(6, 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ElecMean, "elec_mean_util")
}

func BenchmarkRepairabilitySeq(b *testing.B) {
	benchSequential(b)
	var res RepairabilityResult
	warmup(b, func() error { _, err := Repairability(21, 30); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Repairability(21, 30); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OpticalOK)/float64(res.Trials), "optical_ok_frac")
}

func BenchmarkRepairabilityPar(b *testing.B) {
	var res RepairabilityResult
	warmup(b, func() error { _, err := Repairability(21, 30); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Repairability(21, 30); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OpticalOK)/float64(res.Trials), "optical_ok_frac")
}

func BenchmarkChaosSeq(b *testing.B) {
	benchSequential(b)
	var res ChaosResult
	warmup(b, func() error { _, err := Chaos(2024, 3, unit.MB); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Chaos(2024, 3, unit.MB); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BlastRatio, "blast_ratio")
}

func BenchmarkChaosPar(b *testing.B) {
	var res ChaosResult
	warmup(b, func() error { _, err := Chaos(2024, 3, unit.MB); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Chaos(2024, 3, unit.MB); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BlastRatio, "blast_ratio")
}

func BenchmarkSoakSeq(b *testing.B) {
	benchSequential(b)
	var res SoakResult
	warmup(b, func() error { _, err := SoakWithOptions(2024, 2, SoakOptions{}); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = SoakWithOptions(2024, 2, SoakOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanAvailability, "mean_availability")
}

func BenchmarkSoakPar(b *testing.B) {
	var res SoakResult
	warmup(b, func() error { _, err := SoakWithOptions(2024, 2, SoakOptions{}); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = SoakWithOptions(2024, 2, SoakOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanAvailability, "mean_availability")
}

// The RailFabric pair is the component-sharded solver's scale gate:
// 10,240 endpoints, 1,310,720 flows, 1,272 independent components.
// Besides the deterministic makespan paper metric, each reports
// ns/flow — a timing metric (machine-dependent, compared under the
// ns tolerance, never bit-exact) that normalizes the solve cost by
// the flow count. On a multi-core machine Par's ns/flow sits a
// worker-count factor below Seq's; the paper metric is identical by
// the sharded solver's determinism contract.

func BenchmarkRailFabricSeq(b *testing.B) {
	benchSequential(b)
	var res RailFabricResult
	cfg := DefaultRailFabricConfig()
	warmup(b, func() error { _, err := RailFabric(cfg); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RailFabric(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Makespan.Micros(), "rail_makespan_us")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(res.Flows)), "ns/flow")
}

func BenchmarkRailFabricPar(b *testing.B) {
	var res RailFabricResult
	cfg := DefaultRailFabricConfig()
	warmup(b, func() error { _, err := RailFabric(cfg); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RailFabric(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Makespan.Micros(), "rail_makespan_us")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(res.Flows)), "ns/flow")
}

// The ControllerServe pair measures the lightpath-controller load
// campaign sampled at 2 trials (256k requests through the full
// deadline/retry/breaker/degrade ladder). The paper metric is the
// worst per-trial p99 setup latency — a seed-deterministic simulation
// quantity — and ns/request normalizes the serving cost by the
// attempt count (retries and releases included) as a timing metric.

func BenchmarkControllerServeSeq(b *testing.B) {
	benchSequential(b)
	var res ControllerResult
	run := func() error {
		var err error
		res, err = ControllerWithOptions(2024, ControllerOptions{Trials: 2})
		return err
	}
	warmup(b, run)
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WorstP99us, "ctrl_p99_us")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(res.Attempts)), "ns/request")
}

func BenchmarkControllerServePar(b *testing.B) {
	var res ControllerResult
	run := func() error {
		var err error
		res, err = ControllerWithOptions(2024, ControllerOptions{Trials: 2})
		return err
	}
	warmup(b, run)
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WorstP99us, "ctrl_p99_us")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(res.Attempts)), "ns/request")
}

func BenchmarkScheduler(b *testing.B) {
	var res SchedulerResult
	warmup(b, func() error { _, err := Scheduler(1, 12); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Scheduler(1, 12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rows[0].CachingReconfigs), "caching_reconfigs")
}
