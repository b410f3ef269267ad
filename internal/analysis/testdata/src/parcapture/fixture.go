// Package fixture exercises the parcapture analyzer: trial closures
// handed to engine.Map/engine.Stream must not write captured state,
// while local writes, reads of shared inputs, and sequential consume
// callbacks must pass. Sum reconstructs the historical PR 3 bug — a
// float accumulator mutated inside a Map trial — verbatim in shape,
// and Fig5 the Fig5/Sweep race: a receiver-writing method called on a
// fabric every trial shares.
package fixture

import "lightpath/internal/engine"

// Sum is the PR 3 closure-capture race, reconstructed: the campaign
// accumulated into a captured variable from inside the trial body.
func Sum(xs []float64) (float64, error) {
	var sum float64
	var count int
	_, err := engine.Map(len(xs), func(i int) (float64, error) {
		sum += xs[i] // want `trial closure passed to engine.Map writes captured "sum"`
		count++      // want `trial closure passed to engine.Map mutates captured "count" with \+\+`
		return xs[i], nil
	})
	return sum, err
}

// CollectShared appends to a captured slice and writes a captured map
// from inside the trial: both race under the worker pool.
func CollectShared(n int) error {
	var rows []int
	seen := map[int]bool{}
	_, err := engine.Map(n, func(i int) (int, error) {
		rows = append(rows, i) // want `trial closure passed to engine.Map writes captured "rows"`
		seen[i] = true         // want `trial closure passed to engine.Map writes captured "seen"`
		return i, nil
	})
	return err
}

// ChannelFanIn sends trial results on a captured channel: arrival
// order depends on the worker schedule, so the merge is no longer the
// engine's index-ordered one.
func ChannelFanIn(n int) error {
	ch := make(chan int, n)
	_, err := engine.Map(n, func(i int) (int, error) {
		ch <- i // want `trial closure passed to engine.Map sends on captured channel "ch"`
		return i, nil
	})
	close(ch)
	return err
}

// StreamTrialWrites checks the Stream entry point's trial argument;
// the consume callback below it runs sequentially and stays exempt.
func StreamTrialWrites(n int) error {
	attempts := 0
	total := 0
	return engine.Stream(n,
		func(i int) (int, error) {
			attempts++ // want `trial closure passed to engine.Stream mutates captured "attempts" with \+\+`
			return i * i, nil
		},
		func(i, r int) (bool, error) {
			total += r // consume is sequential: allowed
			return total < 100, nil
		})
}

// NamedTrial resolves a trial bound to a local variable before the
// Map call: the write through the captured pointer target is caught.
func NamedTrial(n int) error {
	hits := make([]int, n)
	trial := func(i int) (int, error) {
		hits[0] = i // want `trial closure passed to engine.Map writes captured "hits"`
		return i, nil
	}
	_, err := engine.Map(n, trial)
	return err
}

// DeleteCaptured clears captured containers from inside the trial.
func DeleteCaptured(n int, m map[int]string) error {
	_, err := engine.Map(n, func(i int) (int, error) {
		delete(m, i) // want `trial closure passed to engine.Map calls delete on captured "m"`
		return i, nil
	})
	return err
}

// CleanTrial is the sanctioned shape: per-trial locals, reads of
// shared read-only inputs, results merged by the engine.
func CleanTrial(xs []float64) (float64, error) {
	scale := 2.0 // captured, but only read
	outs, err := engine.Map(len(xs), func(i int) (float64, error) {
		acc := 0.0 // trial-local accumulator: allowed
		for j := 0; j <= i; j++ {
			acc += xs[j] * scale
		}
		return acc, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, o := range outs { // sequential merge after the fan-out
		sum += o
	}
	return sum, nil
}

// Executor reconstructs netsim.Executor: reusable scratch that every
// execution writes.
type Executor struct {
	caps map[int]float64
}

// Electrical writes the executor's scratch map.
func (e *Executor) Electrical(links int) float64 {
	if e.caps == nil {
		e.caps = make(map[int]float64)
	}
	clear(e.caps)
	for l := 0; l < links; l++ {
		e.caps[l] = 1
	}
	return float64(len(e.caps))
}

// Fabric reconstructs core.Fabric: it owns executor scratch, so even
// "planning" writes through the fabric.
type Fabric struct {
	slices int
	exec   Executor
}

// PlanAllReduce writes through its receiver only by way of the
// executor method it calls on f.exec.
func (f *Fabric) PlanAllReduce(si int) float64 { return f.exec.Electrical(si + f.slices) }

// Slices only reads its receiver.
func (f *Fabric) Slices() int { return f.slices }

// Clone returns an independent fabric.
func (f *Fabric) Clone() *Fabric { return &Fabric{slices: f.slices} }

// Fig5 is the Fig5/Sweep race, reconstructed: every trial plans on one
// shared fabric under a comment calling planning read-only.
func Fig5(fabric *Fabric) ([]float64, error) {
	return engine.Map(fabric.Slices(), func(si int) (float64, error) {
		return fabric.PlanAllReduce(si), nil // want `calls .*Fabric\)\.PlanAllReduce on captured "fabric", which writes through its receiver`
	})
}

// Fig5Fixed is the fix: each trial plans on its own clone, and a
// read-only method on the shared fabric stays legal.
func Fig5Fixed(proto *Fabric) ([]float64, error) {
	return engine.Map(proto.Slices(), func(si int) (float64, error) {
		return proto.Clone().PlanAllReduce(si + proto.Slices()), nil
	})
}
