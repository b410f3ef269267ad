package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lightpath/internal/rng"
)

// forceParallel pins the engine to parallel mode with enough workers
// to schedule real concurrency even on a single-core machine, and
// restores the previous settings when the test ends.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	prev := SetWorkers(workers)
	t.Cleanup(func() { SetWorkers(prev) })
}

// forceSequential pins the engine to the sequential reference mode: a
// one-worker pool.
func forceSequential(t *testing.T) {
	t.Helper()
	prev := SetWorkers(1)
	t.Cleanup(func() { SetWorkers(prev) })
}

// TestMapMatchesSequential is the engine's core contract: the parallel
// schedule must return exactly what the sequential loop returns, for a
// trial body that draws from index-derived rng streams.
func TestMapMatchesSequential(t *testing.T) {
	parent := rng.New(2024)
	trial := func(i int) (uint64, error) {
		stream := parent.Split(fmt.Sprintf("trial-%d", i))
		v := stream.Uint64()
		for k := 0; k < i%7; k++ {
			v ^= stream.Uint64()
		}
		return v, nil
	}
	const n = 100
	forceSequential(t)
	seq, err := Map(n, trial)
	if err != nil {
		t.Fatal(err)
	}
	forceParallel(t, 8)
	par, err := Map(n, trial)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != n || len(par) != n {
		t.Fatalf("lengths %d/%d, want %d", len(seq), len(par), n)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

// TestMapFirstErrorWins: the parallel run must surface the same error
// a sequential early-exit loop would — the lowest-index failure.
func TestMapFirstErrorWins(t *testing.T) {
	sentinel := errors.New("trial 13 boom")
	trial := func(i int) (int, error) {
		if i == 13 {
			return 0, sentinel
		}
		if i > 13 && i%2 == 0 {
			return 0, fmt.Errorf("later failure at %d", i)
		}
		return i, nil
	}
	forceParallel(t, 8)
	if _, err := Map(40, trial); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
	forceSequential(t)
	if _, err := Map(40, trial); !errors.Is(err, sentinel) {
		t.Fatalf("sequential got %v, want the lowest-index error", err)
	}
}

// TestMapEmpty covers the degenerate sizes.
func TestMapEmpty(t *testing.T) {
	forceParallel(t, 8)
	for _, n := range []int{0, -3} {
		out, err := Map(n, func(i int) (int, error) { return i, nil })
		if err != nil || out != nil {
			t.Fatalf("Map(%d) = %v, %v; want nil, nil", n, out, err)
		}
	}
	out, err := Map(1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("Map(1) = %v, %v", out, err)
	}
}

// TestStreamMatchesSequential checks the early-stopping contract: the
// accepted prefix must be identical in both modes, including which
// trial index the stream stopped at.
func TestStreamMatchesSequential(t *testing.T) {
	parent := rng.New(7)
	trial := func(i int) (int, error) {
		s := parent.Split(fmt.Sprintf("t-%d", i))
		return s.Intn(10), nil
	}
	run := func() (accepted []int, last int) {
		valid := 0
		err := Stream(400, trial, func(i int, r int) (bool, error) {
			last = i
			if r >= 5 { // acceptance rule: half the trials are invalid
				return true, nil
			}
			accepted = append(accepted, r)
			valid++
			return valid < 20, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return accepted, last
	}
	forceSequential(t)
	seqAcc, seqLast := run()
	forceParallel(t, 8)
	parAcc, parLast := run()
	if len(seqAcc) != 20 || len(parAcc) != 20 {
		t.Fatalf("accepted %d/%d, want 20", len(seqAcc), len(parAcc))
	}
	if seqLast != parLast {
		t.Fatalf("stopped at %d sequential vs %d parallel", seqLast, parLast)
	}
	for i := range seqAcc {
		if seqAcc[i] != parAcc[i] {
			t.Fatalf("accepted[%d]: %d != %d", i, seqAcc[i], parAcc[i])
		}
	}
}

// TestStreamError propagates the trial error at the right index.
func TestStreamError(t *testing.T) {
	sentinel := errors.New("bad trial")
	forceParallel(t, 4)
	var consumed atomic.Int64
	err := Stream(100, func(i int) (int, error) {
		if i == 9 {
			return 0, sentinel
		}
		return i, nil
	}, func(i int, r int) (bool, error) {
		consumed.Add(1)
		return true, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want trial error", err)
	}
	if consumed.Load() != 9 {
		t.Fatalf("consumed %d results before the failing index, want 9", consumed.Load())
	}
}

// TestStreamConsumeError stops the campaign on a consumer error.
func TestStreamConsumeError(t *testing.T) {
	sentinel := errors.New("consumer rejects")
	forceParallel(t, 4)
	err := Stream(50, func(i int) (int, error) { return i, nil },
		func(i int, r int) (bool, error) {
			if i == 3 {
				return false, sentinel
			}
			return true, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want consumer error", err)
	}
}

// TestWorkersOverride checks the override round-trips and clamps.
func TestWorkersOverride(t *testing.T) {
	prev := SetWorkers(6)
	defer SetWorkers(prev)
	if poolSize() != 6 {
		t.Fatalf("poolSize() = %d, want 6", poolSize())
	}
	if got := SetWorkers(-1); got != 6 {
		t.Fatalf("SetWorkers returned %d, want 6", got)
	}
	if poolSize() < 1 {
		t.Fatalf("poolSize() = %d after reset, want >= 1", poolSize())
	}
}

// TestMapConcurrencyIsReal: with the override set, Map must actually
// run trials on multiple goroutines (otherwise -race would have
// nothing to check). Detected via concurrent entry counting.
func TestMapConcurrencyIsReal(t *testing.T) {
	forceParallel(t, 8)
	var inFlight, peak atomic.Int64
	var release sync.Once
	gate := make(chan struct{})
	_, err := Map(8, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if cur >= 2 { // two trials alive at once: release everyone
			release.Do(func() { close(gate) })
		}
		<-gate
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// TestRunShardsCoversEveryShard checks each shard executes exactly
// once with a worker id inside [0, workers), in both modes.
func TestRunShardsCoversEveryShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 97
		var ran [n]atomic.Int64
		var badWorker atomic.Int64
		RunShards(workers, n, func(worker, shard int) {
			if worker < 0 || worker >= workers {
				badWorker.Add(1)
			}
			ran[shard].Add(1)
		})
		if badWorker.Load() != 0 {
			t.Fatalf("workers=%d: worker id out of range", workers)
		}
		for shard := range ran {
			if got := ran[shard].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times, want 1", workers, shard, got)
			}
		}
	}
}

// TestRunShardsSequentialOrder pins the reference schedule: with one
// worker the shards run inline, in ascending order, as worker 0.
func TestRunShardsSequentialOrder(t *testing.T) {
	var order []int
	RunShards(1, 5, func(worker, shard int) {
		if worker != 0 {
			t.Fatalf("sequential shard ran as worker %d", worker)
		}
		order = append(order, shard)
	})
	for i, shard := range order {
		if shard != i {
			t.Fatalf("sequential order %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d shards, want 5", len(order))
	}
}

// TestRunShardsDisjointWrites drives the intended usage — shards
// writing disjoint slices of caller-owned storage — under real
// concurrency so the race detector can vet the claim.
func TestRunShardsDisjointWrites(t *testing.T) {
	forceParallel(t, 4)
	const n = 64
	out := make([]int, n)
	workers := ShardWorkers(n)
	if workers != 4 {
		t.Fatalf("ShardWorkers(%d) = %d, want 4", n, workers)
	}
	arenas := make([][]int, workers)
	RunShards(workers, n, func(worker, shard int) {
		// Per-worker arena reuse: contents never leak across shards.
		arenas[worker] = append(arenas[worker][:0], shard)
		out[shard] = arenas[worker][0] * 2
	})
	for shard, got := range out {
		if got != shard*2 {
			t.Fatalf("shard %d wrote %d, want %d", shard, got, shard*2)
		}
	}
}

// TestShardWorkers pins the worker-count rules the arena sizing
// depends on.
func TestShardWorkers(t *testing.T) {
	forceParallel(t, 8)
	if got := ShardWorkers(3); got != 3 {
		t.Fatalf("ShardWorkers(3) = %d, want 3 (capped by shard count)", got)
	}
	if got := ShardWorkers(100); got != 8 {
		t.Fatalf("ShardWorkers(100) = %d, want 8 (capped by Workers)", got)
	}
	if got := ShardWorkers(1); got != 1 {
		t.Fatalf("ShardWorkers(1) = %d, want 1", got)
	}
	forceSequential(t)
	if got := ShardWorkers(100); got != 1 {
		t.Fatalf("sequential ShardWorkers(100) = %d, want 1", got)
	}
}
