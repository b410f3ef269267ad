package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/fleet"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the long-horizon availability campaign: independent
// multi-day fleet soaks, each a deterministic discrete-event run of
// Poisson faults, self-healing reroutes, spare splices, repair crews
// and admission control — with the invariant auditor in Paranoid mode
// re-checking the optical state after every mutation of every trial.
// It extends the paper's single-fault blast-radius story (§4.2) to
// the compounding-failure regime a real fleet lives in.

// soakTrialStride separates per-trial seed streams; it is the
// splitmix64 golden-gamma increment, so consecutive trials land in
// well-separated regions of the seed space.
const soakTrialStride = 0x9e3779b97f4a7c15

// soakHorizon is the campaign's simulated duration per trial.
const soakHorizon = 3 * unit.Day

// SoakResult aggregates the availability campaign.
type SoakResult struct {
	// Seeds[i] drove trial i; Trials[i] is its full outcome including
	// the availability time series.
	Seeds  []uint64
	Trials []*fleet.Outcome
	// MeanAvailability and MeanGoodput average the per-trial means;
	// WorstAvailability is the weakest trial.
	MeanAvailability, MeanGoodput float64
	WorstAvailability             float64
	// Faults and Repairs total across trials; Violations totals the
	// auditors' findings (zero on a correct simulator).
	Faults, Repairs, Violations int
}

// String renders the campaign summary.
func (r SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet soak: %d trials x %.0f-day horizon, paranoid invariant audit\n",
		len(r.Trials), float64(soakHorizon/unit.Day))
	fmt.Fprintf(&b, "  faults %d, repairs %d, invariant violations %d\n",
		r.Faults, r.Repairs, r.Violations)
	fmt.Fprintf(&b, "  availability mean %.3f worst %.3f, goodput mean %.3f\n",
		r.MeanAvailability, r.WorstAvailability, r.MeanGoodput)
	for i, o := range r.Trials {
		fmt.Fprintf(&b, "  trial %d: avail %.3f goodput %.3f reroutes %d splices %d sheds %d readmits %d minSpares %d audits %d\n",
			i, o.Availability, o.MeanGoodput, o.Reroutes, o.Splices,
			o.ShedEvents, o.Readmissions, o.MinSpares, o.Audits)
	}
	return b.String()
}

// CSV implements Tabular: one row per (trial, sample) — the
// availability time series of every trial, concatenated.
func (r SoakResult) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, o := range r.Trials {
		for _, s := range o.Samples {
			rows = append(rows, []string{
				fmt.Sprintf("%d", i),
				f64(float64(s.T)),
				fmt.Sprintf("%d", s.Up),
				fmt.Sprintf("%d", s.Degraded),
				fmt.Sprintf("%d", s.Shed),
				f64(s.Goodput),
				fmt.Sprintf("%d", s.Faults),
				fmt.Sprintf("%d", s.Repairs),
				f64(s.MeanBlast),
				fmt.Sprintf("%d", s.Spares),
				fmt.Sprintf("%d", s.Violations),
			})
		}
	}
	return []string{"trial", "time_s", "up", "degraded", "shed", "goodput",
		"faults", "repairs", "mean_blast", "spares", "violations"}, rows
}

// SoakOptions extends the availability campaign with crash-tolerant
// checkpointing, driven by lightpath-sim's -checkpoint / -resume /
// -ckpt-interval / -kill-at flags and the soak-resume smoke test.
type SoakOptions struct {
	// CheckpointDir, when non-empty, holds one checkpoint file per
	// trial (soak-trial-<i>.ckpt plus its rotated .prev).
	CheckpointDir string
	// EveryEvents is the per-trial checkpoint cadence in event
	// boundaries (fleet's default when zero).
	EveryEvents uint64
	// KillAfterEvents, when positive, halts every trial at that event
	// boundary after writing a final checkpoint; the campaign then
	// returns an error wrapping snapshot.ErrStopped. It simulates a
	// mid-campaign crash for the resume smoke test.
	KillAfterEvents uint64
	// Resume continues each trial from its checkpoint file instead of
	// starting fresh. The resumed campaign is byte-identical to an
	// uninterrupted one.
	Resume bool
}

// Soak runs the availability campaign: `trials` independent fleet
// soaks at the default three-day horizon, fanned across CPUs by the
// experiment engine. Each trial derives its own seed stream, every
// trial runs under the Paranoid auditor, and the merged result is
// byte-identical whether the trials ran sequentially or in parallel.
func Soak(seed uint64, trials int) (SoakResult, error) {
	return SoakWithOptions(seed, trials, SoakOptions{})
}

// SoakWithOptions is Soak with checkpoint/resume control. The trial
// configs retain the exact time series (fleet.SampleExact): the
// golden CSV is the full series, so the campaign opts out of the
// streaming default.
func SoakWithOptions(seed uint64, trials int, opts SoakOptions) (SoakResult, error) {
	if trials < 1 {
		return SoakResult{}, fmt.Errorf("experiments: soak trials %d < 1", trials)
	}
	run := fleet.RunCheckpointed
	if opts.Resume {
		run = fleet.Resume
	}
	outcomes, err := checkpointedTrials("soak", trials, opts.CheckpointDir, opts.EveryEvents, opts.KillAfterEvents,
		func(i int, copts snapshot.Options) (*fleet.Outcome, error) {
			return run(fleet.Config{
				Seed:       seed + uint64(i)*soakTrialStride,
				Horizon:    soakHorizon,
				Audit:      invariant.Paranoid,
				SampleMode: fleet.SampleExact,
			}, copts)
		})
	if err != nil {
		return SoakResult{}, err
	}
	res := SoakResult{WorstAvailability: 1}
	for i, o := range outcomes {
		res.Seeds = append(res.Seeds, seed+uint64(i)*soakTrialStride)
		res.Trials = append(res.Trials, o)
		res.MeanAvailability += o.Availability
		res.MeanGoodput += o.MeanGoodput
		if o.Availability < res.WorstAvailability {
			res.WorstAvailability = o.Availability
		}
		res.Faults += o.Faults
		res.Repairs += o.Repairs
		res.Violations += o.Violations
	}
	n := float64(trials)
	res.MeanAvailability /= n
	res.MeanGoodput /= n
	return res, nil
}
