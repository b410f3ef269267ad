package route

import (
	"errors"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// BenchmarkEstablish measures the hot path of circuit setup: one
// cross-wafer establish/release cycle on a warm allocator. The
// acceptance bar for the scratch-buffer work is allocs/op — the plan
// search and loss evaluation must not allocate per call once the
// allocator's scratch tables have grown. The paper metric is the
// first established link's total optical loss, a seed-deterministic
// check that the fast path still computes the same physics. It is
// captured from the warmup call on fresh allocator state: each
// establish/release cycle advances the allocator's RNG, so the loss
// seen inside the measured loop would depend on the iteration count.
func BenchmarkEstablish(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(7))
	req := Request{A: 0, B: 40, Width: 1}
	// Warm the scratch tables so steady-state allocations are measured.
	c, err := a.Establish(req, 0)
	if err != nil {
		b.Fatal(err)
	}
	loss := float64(c.Link.TotalLossDB)
	a.Release(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := a.Establish(req, unit.Seconds(0))
		if err != nil {
			b.Fatal(err)
		}
		a.Release(c)
	}
	b.ReportMetric(loss, "loss_db")
}

// BenchmarkEstablishWarm measures the cached fast path explicitly: the
// same chip pair over and over on a warm allocator, so every iteration
// after the first is a plan-cache hit and the candidate search never
// reruns. The cache_hit_ratio metric is the proof — it must approach
// 1.0 — and allocs/op must hold at the &Circuit minimum.
func BenchmarkEstablishWarm(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(7))
	req := Request{A: 0, B: 40, Width: 1}
	c, err := a.Establish(req, 0)
	if err != nil {
		b.Fatal(err)
	}
	a.Release(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := a.Establish(req, unit.Seconds(0))
		if err != nil {
			b.Fatal(err)
		}
		a.Release(c)
	}
	b.StopTimer()
	hits, misses := a.PlanCacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "cache_hit_ratio")
	}
}

// BenchmarkEstablishDoomed measures an establish that cannot succeed:
// the far endpoint's lasers are all reserved, so every candidate plan
// would fail at the endpoint reservation. Attempt pruning tries only
// the last plan, for its exact error, so the cost is one attempt and
// the lazily formatted error (one allocation). The commit_attempts
// metric counts the attempts one such establish makes — on this
// fixture every attempt reserves the near endpoint before the far one
// refuses, so the journal's endpoint list has one entry per attempt —
// and must be 1.
func BenchmarkEstablishDoomed(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(7))
	req := Request{A: 0, B: 40, Width: 1}
	if err := rack.TileOf(req.B).Reserve(rack.Config().LasersPerTile); err != nil {
		b.Fatal(err)
	}
	// Warm the plan cache and the bus lanes the attempt touches.
	if _, err := a.Establish(req, 0); !errors.Is(err, wafer.ErrLasersExhausted) {
		b.Fatalf("establish onto a full chip: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Establish(req, unit.Seconds(0)); err == nil {
			b.Fatal("establish onto a full chip succeeded")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(a.Journal().Chips)), "commit_attempts")
}
