package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lightpath/internal/ctrl/loadgen"
	"lightpath/internal/experiments"
)

// campaignTrials is the X14 load campaign sampled at two trials: the
// size of the committed controller golden.
const campaignTrials = 2

// campaignAgents and campaignArrivals are the campaign's per-trial
// shape (experiments' controller constants): requests per trial must
// equal their product.
const (
	campaignAgents   = 128
	campaignArrivals = 1000
)

// trialStride is the X14 campaign's per-trial seed increment (the
// splitmix64 golden gamma): trial i of the campaign at seed s runs at
// s + i*trialStride.
const trialStride = 0x9e3779b97f4a7c15

// campaignGolden is the controller campaign's committed CSV at the
// golden seed and two trials, relative to the checkout root.
const campaignGolden = "cmd/lightpath-sim/testdata/controller_golden.csv"

// runCampaign runs the ctrl-campaign workload: the X14 controller load
// campaign two trials at a time until the budget is spent. The k-th
// campaign of a run starts at seed + 2k*trialStride, so a run walks
// through the trials of the full campaign at its seed — the first
// campaign is exactly the golden one at the golden seed — and a run's
// figures average many trials rather than two. Each campaign is one
// sample of the latency metrics; an operation is a submit attempt.
func runCampaign(opts options) (*outcome, error) {
	ckptDir := filepath.Join(opts.work, "ckpt")
	setup, err := campaignSetup(opts.seed, ckptDir)
	if err != nil {
		return nil, err
	}
	var (
		check   error
		last    experiments.ControllerResult
		tallies campaignTallies
	)
	br, err := runBatches(opts, "experiments.ControllerWithOptions", func(k int) (int64, error) {
		res, err := experiments.ControllerWithOptions(opts.seed+uint64(k)*campaignTrials*trialStride,
			experiments.ControllerOptions{Trials: campaignTrials, CheckpointDir: ckptDir})
		if err != nil {
			return 0, err
		}
		if check == nil {
			check = checkCampaign(opts, res, k == 0, ckptDir)
		}
		tallies.add(res)
		last = res
		return int64(res.Attempts), nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: br.ops, checkErr: check, values: br.endToEnd(setup)}
	if !opts.trace {
		return out, nil
	}
	out.values = br.layers
	// The campaign's layers all sit behind one call, so the profile is
	// the split: invariant's busy share is its cumulative CPU share.
	out.values["invariant.busy_frac"] = br.cum["invariant"]
	tallies.report(out.values)
	out.values["snapshot.bytes"] = checkpointBytes(ckptDir, len(last.Trials))
	return out, nil
}

// campaignSetup prepares the checkpoint directory and times a
// campaign's set-up: ControllerWithOptions stopped after the first
// event builds each trial's controller, agents and fault schedule and
// serves nothing. It is sub-millisecond, so each rep averages a batch.
func campaignSetup(seed uint64, ckptDir string) (time.Duration, error) {
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return 0, err
	}
	return medianTime(7, 20, func() error {
		_, err := experiments.ControllerWithOptions(seed, experiments.ControllerOptions{
			Trials:          campaignTrials,
			KillAfterEvents: 1,
		})
		if !errors.Is(err, loadgen.ErrStopped) {
			return fmt.Errorf("campaign set-up: %v, want it stopped after one event", err)
		}
		return nil
	})
}

// campaignTallies sums the per-layer counters over a run's campaigns.
type campaignTallies struct {
	requests, attempts, events, retries, lost        int
	shed, deadline, breaker, noPath, faults, reroute int
	hits, misses                                     uint64
}

func (t *campaignTallies) add(res experiments.ControllerResult) {
	for _, o := range res.Trials {
		t.requests += o.Requests
		t.attempts += o.Attempts
		t.events += int(o.Events)
		t.retries += o.Retries
		t.lost += o.Lost
		t.shed += o.Shed
		t.deadline += o.DeadlineMiss
		t.breaker += o.BreakerRejects
		t.noPath += o.NoPath
		t.faults += o.Faults
		t.reroute += o.Reroutes
		t.hits += o.CacheHits
		t.misses += o.CacheMisses
	}
}

// report writes the tallies as per-campaign counts and ratios.
func (t *campaignTallies) report(v map[string]float64) {
	att := float64(t.attempts)
	v["ctrl.admission.shed_frac"] = ratio(float64(t.shed), att)
	v["ctrl.admission.deadline_frac"] = ratio(float64(t.deadline), att)
	v["ctrl.admission.breaker_frac"] = ratio(float64(t.breaker), att)
	v["route.nopath_frac"] = ratio(float64(t.noPath), att)
	v["route.plan_cache.hit_ratio"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	v["fail_frac"] = ratio(float64(t.lost), float64(t.requests))
	v["loadgen.retries_per_request"] = ratio(float64(t.retries), float64(t.requests))
	campaigns := float64(t.requests) / (campaignTrials * campaignAgents * campaignArrivals)
	v["loadgen.events"] = ratio(float64(t.events), campaigns)
	v["chaos.faults"] = ratio(float64(t.faults), campaigns)
	v["ctrl.reroutes"] = ratio(float64(t.reroute), campaigns)
}

// checkCampaign verifies one campaign. The first campaign of a run at
// the golden seed must write a CSV byte-identical to the committed
// golden; every campaign's trials must issue agents×arrivals requests,
// end with zero invariant violations and zero leaked circuits, and
// account for every attempt.
func checkCampaign(opts options, res experiments.ControllerResult, first bool, dir string) error {
	if len(res.Trials) != campaignTrials {
		return fmt.Errorf("campaign ran %d trials, want %d", len(res.Trials), campaignTrials)
	}
	for i, o := range res.Trials {
		switch {
		case o.Requests != campaignAgents*campaignArrivals:
			return fmt.Errorf("trial %d issued %d requests, want %d", i, o.Requests, campaignAgents*campaignArrivals)
		case o.Violations != 0:
			return fmt.Errorf("trial %d: %d invariant violations", i, o.Violations)
		case o.Leaked != 0:
			return fmt.Errorf("trial %d leaked %d circuits", i, o.Leaked)
		case o.Lost > o.Requests:
			return fmt.Errorf("trial %d lost %d of %d requests", i, o.Lost, o.Requests)
		}
		// Every attempt ends in one controller outcome; the remainder
		// beyond the counted buckets is releases of circuits a fault
		// already took, answered unknown-circuit.
		counted := o.Served + o.Shed + o.DeadlineMiss + o.BreakerRejects + o.NoPath + o.EndpointFailed
		if counted > o.Attempts {
			return fmt.Errorf("trial %d: %d outcomes for %d attempts", i, counted, o.Attempts)
		}
		if o.Attempts < o.Requests+o.Retries {
			return fmt.Errorf("trial %d: %d attempts fewer than %d requests plus %d retries", i, o.Attempts, o.Requests, o.Retries)
		}
	}
	if opts.seed != goldenSeed || !first {
		return nil
	}
	path := filepath.Join(dir, "controller.csv")
	if err := experiments.WriteCSV(path, res); err != nil {
		return err
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(opts.root, campaignGolden))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("campaign CSV differs from %s", campaignGolden)
	}
	return nil
}

// checkpointBytes is the mean size of the campaign's trial checkpoints.
func checkpointBytes(dir string, trials int) float64 {
	var total float64
	for i := 0; i < trials; i++ {
		if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("ctrl-trial-%d.ckpt", i))); err == nil {
			total += float64(fi.Size())
		}
	}
	return ratio(total, float64(trials))
}
