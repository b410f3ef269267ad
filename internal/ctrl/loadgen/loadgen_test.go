package loadgen

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/snapshot/snapshottest"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// smallConfig is a fast campaign that still exercises every mechanism:
// contention for shedding, tight deadlines for misses, chaos for
// breaker traffic and reroutes.
func smallConfig(seed uint64) Config {
	var rates chaos.Rates
	rates.MTBF[chaos.ChipFailure] = 20 * unit.Millisecond
	return Config{
		Seed:             seed,
		Agents:           16,
		ArrivalsPerAgent: 60,
		MeanInterarrival: 150 * unit.Microsecond,
		MeanHold:         unit.Millisecond,
		Width:            2,
		Deadline:         120 * unit.Microsecond,
		Ctrl: ctrl.Config{
			QueueCap:         16,
			EstablishService: 8 * unit.Microsecond,
			Audit:            invariant.Paranoid,
		},
		Backoff: ctrl.Backoff{
			Base: 100 * unit.Microsecond, Factor: 2,
			Cap: 2 * unit.Millisecond, Jitter: 0.5, MaxRetries: 4,
		},
		Rates: rates,
	}
}

// TestRunDeterministic replays the same campaign twice and demands
// identical Results in every field — latencies, goodput and event
// count included.
func TestRunDeterministic(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	a, err := RunCheckpointed(smallConfig(42), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	invariant.ResetGlobal()
	b, err := RunCheckpointed(smallConfig(42), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different campaigns:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestRunConservesRequests checks the accounting identity: every fresh
// request either lands (served), is abandoned after retries (lost), or
// dies at an exhausted non-retryable rejection — and nothing leaks.
func TestRunConservesRequests(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(7)
	r, err := RunCheckpointed(cfg, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Agents * cfg.ArrivalsPerAgent; r.Requests != want {
		t.Fatalf("campaign issued %d requests, configured %d", r.Requests, want)
	}
	if r.Attempts < r.Requests {
		t.Fatalf("attempts %d below requests %d", r.Attempts, r.Requests)
	}
	if r.Leaked != 0 {
		t.Fatalf("%d circuits leaked their release", r.Leaked)
	}
	if r.Violations != 0 {
		t.Fatalf("%d invariant violations", r.Violations)
	}
	// The stress config must actually engage its mechanisms, or the
	// campaign proves nothing.
	if r.Shed == 0 || r.DeadlineMiss == 0 || r.Retries == 0 {
		t.Fatalf("campaign too gentle: shed %d, deadline misses %d, retries %d",
			r.Shed, r.DeadlineMiss, r.Retries)
	}
	if r.Faults == 0 || r.BreakerTrips == 0 {
		t.Fatalf("chaos dormant: %d faults, %d breaker trips", r.Faults, r.BreakerTrips)
	}
	if r.P99us < r.P50us || r.P50us <= 0 {
		t.Fatalf("implausible latency quantiles p50=%v p99=%v", r.P50us, r.P99us)
	}
}

// TestKillResumeAnyBoundary stops the campaign at a spread of event
// boundaries, resumes from the checkpoint, and demands the resumed
// Result be identical to the uninterrupted run — kill-at-any-boundary
// crash tolerance.
func TestKillResumeAnyBoundary(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(1234)
	want, err := RunCheckpointed(cfg, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Events < 1000 {
		t.Fatalf("campaign too short (%d events) to make boundary kills interesting", want.Events)
	}
	for _, stopAt := range []uint64{1, 17, 500, want.Events / 2, want.Events - 1} {
		path := filepath.Join(t.TempDir(), "kill.ckpt")
		opts := snapshot.Options{Path: path, EveryEvents: 256, StopAfterEvents: stopAt}
		invariant.ResetGlobal()
		if _, err := RunCheckpointed(cfg, opts); !errors.Is(err, ErrStopped) {
			t.Fatalf("stop at %d: %v, want ErrStopped", stopAt, err)
		}
		invariant.ResetGlobal()
		got, err := Resume(cfg, snapshot.Options{Path: path, EveryEvents: 256})
		if err != nil {
			t.Fatalf("resume from boundary %d: %v", stopAt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kill at %d diverged from the uninterrupted run:\n  resumed %+v\n  want    %+v",
				stopAt, got, want)
		}
	}
}

// TestResumeRejectsConfigChange pins the digest gate: a checkpoint
// taken under one campaign config must refuse to resume under another.
func TestResumeRejectsConfigChange(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(5)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	opts := snapshot.Options{Path: path, EveryEvents: 128, StopAfterEvents: 400}
	if _, err := RunCheckpointed(cfg, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"agents":   func(c *Config) { c.Agents-- },
		"width":    func(c *Config) { c.Width = 1 },
		"backoff":  func(c *Config) { c.Backoff.MaxRetries++ },
		"deadline": func(c *Config) { c.Deadline *= 2 },
		"chaos":    func(c *Config) { c.Rates.MTBF[chaos.ChipFailure] = 0 },
	} {
		bad := cfg
		mutate(&bad)
		invariant.ResetGlobal()
		if _, err := Resume(bad, snapshot.Options{Path: path}); !errors.Is(err, ctrl.ErrConfigMismatch) {
			t.Errorf("%s change resumed anyway: %v", name, err)
		}
	}
}

// TestCheckpointDigestCoversEveryField perturbs every leaf of the
// defaulted campaign config, the controller's included, and demands
// that each perturbed config refuses the checkpoint. Ctrl.Seed is the
// one leaf that must not: the campaign seed overrides it, and two
// configs that behave the same must digest the same — as must a zero
// Ctrl and its spelled-out defaults.
func TestCheckpointDigestCoversEveryField(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(5).withDefaults()
	srv, err := ctrl.NewServer(cfg.Ctrl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ctrl = srv.Config()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 100}); !errors.Is(err, ErrStopped) {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	if _, err := Resume(smallConfig(5), snapshot.Options{Path: path, StopAfterEvents: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("resume under the undefaulted spelling of the same config: %v", err)
	}
	leaves := snapshottest.Leaves(cfg)
	if len(leaves) < 19+18 {
		t.Fatalf("walk found %d leaves, want ctrl.Config's 19 plus loadgen's own", len(leaves))
	}
	for _, leaf := range leaves {
		invariant.ResetGlobal()
		_, err := Resume(leaf.Config, snapshot.Options{Path: path, StopAfterEvents: 1})
		if leaf.Path == "Ctrl.Seed" {
			if !errors.Is(err, ErrStopped) {
				t.Errorf("Ctrl.Seed changed: resume err = %v, want the overridden seed ignored", err)
			}
			continue
		}
		if !errors.Is(err, snapshot.ErrConfigMismatch) {
			t.Errorf("%s changed: resume err = %v, want ErrConfigMismatch", leaf.Path, err)
		}
	}
}

// TestResumeRejectsWaveguidePitchChange is the drift the nested
// controller digest let through: a campaign resumed without complaint
// under a different wafer waveguide pitch.
func TestResumeRejectsWaveguidePitchChange(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(5)
	cfg.Ctrl.WaferConfig = wafer.DefaultConfig()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 100}); !errors.Is(err, ErrStopped) {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	bad := cfg
	bad.Ctrl.WaferConfig.WaveguidePitch *= 2
	invariant.ResetGlobal()
	if _, err := Resume(bad, snapshot.Options{Path: path}); !errors.Is(err, ctrl.ErrConfigMismatch) {
		t.Fatalf("WaveguidePitch x2: %v, want ErrConfigMismatch", err)
	}
}

// TestResumeRefusesOldFormat: a checkpoint in the v1 layout (with the
// controller's nested digest) is refused as a format mismatch, never
// misreported as a config mismatch.
func TestResumeRefusesOldFormat(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(5)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 100}); !errors.Is(err, ErrStopped) {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	_, payload, err := snapshot.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := snapshot.Write(old, 1, payload); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(cfg, snapshot.Options{Path: old})
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || errors.Is(err, snapshot.ErrConfigMismatch) ||
		!strings.Contains(err.Error(), "format v1, this build reads v2") {
		t.Fatalf("v1 checkpoint: %v, want the format-version error", err)
	}
}
