package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/snapshot"
	"lightpath/internal/snapshot/snapshottest"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// crashCfg is a small but busy soak: a short horizon with dense
// faults, so the sweep over kill points stays fast while still
// exercising reroutes, splices, sheds, repairs and sampling.
func crashCfg() Config {
	cfg := Config{Seed: 99, Horizon: 6 * unit.Hour, SampleEvery: 10 * unit.Minute}
	for c := 0; c < chaos.NumClasses; c++ {
		cfg.Rates.MTBF[c] = cfg.Horizon / 12
	}
	return cfg
}

// TestResumeByteIdenticalAtEveryBoundary is the crash-injection
// harness: kill the soak at every Nth event boundary, resume from the
// checkpoint, and demand an Outcome deep-equal — float bits and all —
// to the uninterrupted run.
func TestResumeByteIdenticalAtEveryBoundary(t *testing.T) {
	cfg := crashCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Events < 20 {
		t.Fatalf("only %d events; config too quiet to exercise kill points", want.Events)
	}
	dir := t.TempDir()
	const stride = 7 // sweep a co-prime stride so every event class gets hit
	for kill := uint64(1); kill <= want.Events; kill += stride {
		path := filepath.Join(dir, "ckpt")
		_, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: kill})
		if !errors.Is(err, snapshot.ErrStopped) {
			t.Fatalf("kill at %d: err = %v, want ErrStopped", kill, err)
		}
		got, err := Resume(cfg, snapshot.Options{Path: path})
		if err != nil {
			t.Fatalf("resume from event %d: %v", kill, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from event %d diverges:\ngot  %+v\nwant %+v", kill, got, want)
		}
		os.Remove(path)
		os.Remove(snapshot.PrevPath(path))
	}
}

// TestResumeFallsBackOnTornSnapshot simulates a crash mid-write: the
// primary checkpoint is torn (truncated / bit-flipped), and Resume
// must fall back to the previous good snapshot and still replay to
// the identical Outcome.
func TestResumeFallsBackOnTornSnapshot(t *testing.T) {
	cfg := crashCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	// Checkpoint every 5 events and stop mid-run, so both the primary
	// and the rotated .prev exist and differ.
	kill := want.Events / 2
	_, err = RunCheckpointed(cfg, snapshot.Options{Path: path, EveryEvents: 5, StopAfterEvents: kill})
	if !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	prev, err := os.ReadFile(snapshot.PrevPath(path))
	if err != nil {
		t.Fatalf("no previous snapshot was rotated aside: %v", err)
	}
	if len(prev) == 0 {
		t.Fatal("previous snapshot is empty")
	}

	tear := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Resume(cfg, snapshot.Options{Path: path})
		if err != nil {
			t.Fatalf("%s: resume did not fall back: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fallback resume diverges", name)
		}
		// Restore the primary for the next tear.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear("truncated", func(b []byte) []byte { return b[:len(b)/3] })
	tear("bit-flip", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x40
		return c
	})
	tear("empty", func(b []byte) []byte { return nil })

	// Both snapshots corrupt: resume must fail with the typed error,
	// never a panic or a silently wrong outcome.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot.PrevPath(path), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, snapshot.Options{Path: path}); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("both-corrupt resume err = %v, want ErrCorruptSnapshot", err)
	}
}

// TestResumeRejectsConfigMismatch guards against continuing a
// checkpoint under a different configuration, which would silently
// break determinism.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 10}); !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	other := cfg
	other.Seed++
	if _, err := Resume(other, snapshot.Options{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("err = %v, want ErrConfigMismatch", err)
	}
}

// TestCheckpointDigestCoversEveryField perturbs every leaf of the
// defaulted soak config and demands that each perturbed config refuses
// the checkpoint: the digest is complete by construction.
func TestCheckpointDigestCoversEveryField(t *testing.T) {
	cfg := crashCfg().withDefaults()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 10}); !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	leaves := snapshottest.Leaves(cfg)
	if len(leaves) < 31 {
		t.Fatalf("walk found %d leaves, fleet.Config has at least 31", len(leaves))
	}
	for _, leaf := range leaves {
		if _, err := Resume(leaf.Config, snapshot.Options{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
			t.Errorf("%s changed: resume err = %v, want ErrConfigMismatch", leaf.Path, err)
		}
	}
}

// TestResumeRejectsLossGeometryChange is the drift the hand-written
// digest let through: a soak resumed without complaint under a wafer
// with TileEdge x4, or under a 9 dB waveguide-degradation bound.
func TestResumeRejectsLossGeometryChange(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 10}); !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	edge := cfg
	edge.Wafer = wafer.DefaultConfig()
	edge.Wafer.TileEdge *= 4
	loss := cfg
	loss.Rates.WaveguideLossDB = 9
	for name, bad := range map[string]Config{"Wafer.TileEdge x4": edge, "Rates.WaveguideLossDB=9": loss} {
		if _, err := Resume(bad, snapshot.Options{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
			t.Errorf("%s: err = %v, want ErrConfigMismatch", name, err)
		}
	}
}

// TestResumeRefusesOldFormat: a checkpoint in the v1 layout (which
// carried its own digest) is refused as a format mismatch, never
// misreported as a config mismatch.
func TestResumeRefusesOldFormat(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, snapshot.Options{Path: path, StopAfterEvents: 10}); !errors.Is(err, snapshot.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
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

// TestResumeMissingCheckpoint pins the error for a path that was
// never written: not-exists, not corruption.
func TestResumeMissingCheckpoint(t *testing.T) {
	cfg := crashCfg()
	_, err := Resume(cfg, snapshot.Options{Path: filepath.Join(t.TempDir(), "nope")})
	if err == nil || errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want a missing-file error", err)
	}
	if _, err := Resume(cfg, snapshot.Options{}); err == nil {
		t.Fatal("resume without a path must fail")
	}
}

// TestStreamingMatchesExactAggregates runs the same soak in both
// sample modes: the headline aggregates must agree to the bit, the
// streaming series must be a bounded subset, and short soaks must
// retain the exact series even in streaming mode.
func TestStreamingMatchesExactAggregates(t *testing.T) {
	cfg := crashCfg()
	cfg.SampleEvery = 10 * unit.Second
	cfg.ReservoirCap = 64

	exact := cfg
	exact.SampleMode = SampleExact
	eo, err := Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eo.Availability != so.Availability || eo.MeanGoodput != so.MeanGoodput {
		t.Fatalf("aggregates diverge across modes: %v/%v vs %v/%v",
			eo.Availability, eo.MeanGoodput, so.Availability, so.MeanGoodput)
	}
	if eo.GoodputP05 != so.GoodputP05 || eo.GoodputP50 != so.GoodputP50 {
		t.Fatalf("quantiles diverge across modes")
	}
	if eo.SamplesSeen != so.SamplesSeen || len(eo.Samples) != eo.SamplesSeen {
		t.Fatalf("exact mode dropped rows: %d retained of %d", len(eo.Samples), eo.SamplesSeen)
	}
	if len(so.Samples) != cfg.ReservoirCap {
		t.Fatalf("streaming mode holds %d rows, want the %d-row reservoir", len(so.Samples), cfg.ReservoirCap)
	}
	// Every retained streaming row is a verbatim exact row.
	byTime := make(map[unit.Seconds]Sample, len(eo.Samples))
	for _, row := range eo.Samples {
		byTime[row.T] = row
	}
	last := unit.Seconds(-1)
	for _, row := range so.Samples {
		if row.T <= last {
			t.Fatalf("streaming series not time-sorted at %v", row.T)
		}
		last = row.T
		if byTime[row.T] != row {
			t.Fatalf("streaming row at %v is not the exact row", row.T)
		}
	}

	// Short soaks: streaming retains everything, so the default mode
	// change cannot perturb existing consumers.
	short := Config{Seed: 5}
	a, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	shortExact := short
	shortExact.SampleMode = SampleExact
	b, err := Run(shortExact)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("short-soak streaming series differs from exact")
	}
}
