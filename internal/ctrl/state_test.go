package ctrl

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/snapshot/snapshottest"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// workServer drives a server through a representative mixed history:
// establishes (some degraded), releases, a chip-death fault with its
// reroutes, breaker traffic and shed arrivals.
func workServer(t *testing.T, s *Server) {
	t.Helper()
	at := unit.Seconds(0)
	var circuits []int
	for i := 0; i < 20; i++ {
		at += 3 * unit.Microsecond
		resp := submit(s, Request{Op: OpEstablish, A: i % 8, B: 20 + i%9, Width: 2}, at)
		if resp.Status == StatusOK {
			circuits = append(circuits, resp.Circuit)
		}
	}
	for _, id := range circuits[:len(circuits)/3] {
		at += unit.Microsecond
		submit(s, Request{Op: OpRelease, Circuit: id}, at)
	}
	if _, err := s.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 2}, at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		at += 200 * unit.Nanosecond
		submit(s, Request{Op: OpEstablish, A: 2, B: 40, Width: 1}, at) // dead chip: trips the breaker
	}
}

// TestCheckpointRoundTrip snapshots a worked server mid-life, restores
// it, and demands the restored instance is observationally identical —
// stats, clock, queue, breaker trips, circuit inventory — and behaves
// identically on the next request.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Seed: 11, Audit: invariant.Paranoid}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	workServer(t, s)

	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats() != s.Stats() {
		t.Fatalf("stats diverge:\n  orig %+v\n  rest %+v", s.Stats(), r.Stats())
	}
	if r.Clock() != s.Clock() || r.QueueDepth() != s.QueueDepth() || r.BreakerTrips() != s.BreakerTrips() {
		t.Fatalf("clock/queue/trips diverge: %v/%d/%d vs %v/%d/%d",
			r.Clock(), r.QueueDepth(), r.BreakerTrips(), s.Clock(), s.QueueDepth(), s.BreakerTrips())
	}
	want, got := s.Allocator().Circuits(), r.Allocator().Circuits()
	if len(want) != len(got) {
		t.Fatalf("circuit inventory %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("circuit %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Same next request, same outcome — byte for byte.
	at := s.Clock() + 50*unit.Microsecond
	a, _ := s.Submit(Request{ID: 9, Op: OpEstablish, A: 7, B: 33, Width: 2}, at)
	b, _ := r.Submit(Request{ID: 9, Op: OpEstablish, A: 7, B: 33, Width: 2}, at)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restored server answered differently: %+v vs %+v", b, a)
	}
}

// TestCheckpointBacklogBeyondQueueCap pins a subtle interaction:
// releases are exempt from queue-full shedding, so a live backlog can
// legitimately exceed QueueCap — and a checkpoint taken at such an
// instant must still restore (an earlier validation rejected it as
// corrupt).
func TestCheckpointBacklogBeyondQueueCap(t *testing.T) {
	cfg := Config{Seed: 8, QueueCap: 4}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	// Held circuits to tear down later, established with the queue idle.
	var circuits []int
	for i := 0; i < 6; i++ {
		at := unit.Seconds(i+1) * 100 * unit.Microsecond
		resp := submit(s, Request{Op: OpEstablish, A: i % 8, B: 20 + i, Width: 1}, at)
		if resp.Status != StatusOK {
			t.Fatalf("setup establish %d: %+v", i, resp)
		}
		circuits = append(circuits, resp.Circuit)
	}
	// One instant: fill the queue with establishes, then pile the
	// exempt releases on top of the full queue.
	burst := s.Clock() + unit.Millisecond
	for i := 0; i < cfg.QueueCap; i++ {
		submit(s, Request{Op: OpEstablish, A: i % 8, B: 30 + i, Width: 1}, burst)
	}
	for _, id := range circuits {
		if resp := submit(s, Request{Op: OpRelease, Circuit: id}, burst); resp.Status != StatusOK {
			t.Fatalf("release %d rejected: %+v", id, resp)
		}
	}
	if depth := s.QueueDepth(); depth <= cfg.QueueCap {
		t.Fatalf("backlog %d did not exceed QueueCap %d: the scenario lost its point", depth, cfg.QueueCap)
	}

	path := filepath.Join(t.TempDir(), "over.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(cfg, path)
	if err != nil {
		t.Fatalf("restore of an over-cap backlog checkpoint: %v", err)
	}
	if r.Stats() != s.Stats() || r.QueueDepth() != s.QueueDepth() {
		t.Fatalf("restored server diverges: stats %+v vs %+v, depth %d vs %d",
			r.Stats(), s.Stats(), r.QueueDepth(), s.QueueDepth())
	}
}

// TestCheckpointConfigMismatch pins the digest gate: a checkpoint
// taken under one config must refuse to restore under another.
func TestCheckpointConfigMismatch(t *testing.T) {
	cfg := Config{Seed: 3}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.QueueCap = 9
	if _, err := LoadCheckpoint(bad, path); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("queue-cap change: %v, want ErrConfigMismatch", err)
	}
	bad = cfg
	bad.Seed = 4
	if _, err := LoadCheckpoint(bad, path); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("seed change: %v, want ErrConfigMismatch", err)
	}
}

// TestCheckpointDigestCoversEveryField perturbs every leaf of the
// resolved controller config and demands that each perturbed config
// refuses the checkpoint: the digest is complete by construction.
func TestCheckpointDigestCoversEveryField(t *testing.T) {
	s, err := NewServer(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	leaves := snapshottest.Leaves(s.Config())
	if len(leaves) < 19 {
		t.Fatalf("walk found %d leaves, ctrl.Config has at least 19", len(leaves))
	}
	for _, leaf := range leaves {
		if _, err := LoadCheckpoint(leaf.Config, path); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s changed: restore err = %v, want ErrConfigMismatch", leaf.Path, err)
		}
	}
}

// TestCheckpointRejectsTileEdgeChange is the drift the hand-written
// digest let through: TileEdge feeds route propagation loss, yet a
// checkpoint restored under TileEdge x4 without complaint.
func TestCheckpointRejectsTileEdgeChange(t *testing.T) {
	cfg := Config{Seed: 3, WaferConfig: wafer.DefaultConfig()}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.WaferConfig.TileEdge *= 4
	if _, err := LoadCheckpoint(bad, path); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("TileEdge x4: %v, want ErrConfigMismatch", err)
	}
}

// TestCheckpointRefusesOldFormat: a checkpoint in the v1 layout (which
// carried its own digest) is refused as a format mismatch, never
// misreported as a config mismatch.
func TestCheckpointRefusesOldFormat(t *testing.T) {
	cfg := Config{Seed: 3}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapshot.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := snapshot.Write(old, 1, payload); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(cfg, old)
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || errors.Is(err, ErrConfigMismatch) ||
		!strings.Contains(err.Error(), "format v1, this build reads v2") {
		t.Fatalf("v1 checkpoint: %v, want the format-version error", err)
	}
}

// TestCheckpointCorruption pins the failure taxonomy for damaged
// snapshot files: truncation and bit-flips surface ErrCorruptSnapshot,
// never a panic or a silently wrong server.
func TestCheckpointCorruption(t *testing.T) {
	cfg := Config{Seed: 5}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	workServer(t, s)
	dir := t.TempDir()
	path := filepath.Join(dir, "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"flipped":   func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"empty":     func(b []byte) []byte { return nil },
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte{}, data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(cfg, p); err == nil {
			t.Errorf("%s checkpoint restored without error", name)
		} else if !errors.Is(err, snapshot.ErrCorruptSnapshot) && !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s: error %v outside the snapshot taxonomy", name, err)
		}
	}
}

// TestCheckpointTornWriteFallsBack kills the primary snapshot after a
// rotation and checks Load falls back to the previous good one.
func TestCheckpointTornWriteFallsBack(t *testing.T) {
	cfg := Config{Seed: 6}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	statsAtFirst := s.Stats()
	workServer(t, s)
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// Tear the primary: the .prev rotation must save the day.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats() != statsAtFirst {
		t.Fatalf("fallback restored stats %+v, want the first checkpoint's %+v", r.Stats(), statsAtFirst)
	}
}
