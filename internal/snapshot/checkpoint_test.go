package snapshot

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// counter is the smallest State: one number, validated on restore.
type counter struct{ n uint64 }

func (c *counter) EncodeState(e *Encoder) { e.U64(c.n) }

func (c *counter) RestoreState(d *Decoder) error {
	c.n = d.U64()
	return d.Err()
}

type testConfig struct {
	Seed  uint64
	Scale float64
}

// TestCheckpointerBoundary pins the driver's cadence: a write on every
// EveryEvents-th boundary and at the stop boundary, ErrStopped there,
// and a stop without a path that still stops.
func TestCheckpointerBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := testConfig{Seed: 1, Scale: 0.1}
	ck := NewCheckpointer(7, cfg, Options{Path: path, EveryEvents: 4, StopAfterEvents: 10})
	s := &counter{}
	for s.n = 1; ; s.n++ {
		err := ck.Boundary(s.n, s)
		if errors.Is(err, ErrStopped) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.n == 9 {
			// The last cadence write (event 8) is on disk.
			got := &counter{}
			if err := NewCheckpointer(7, cfg, Options{}).Restore(path, got); err != nil || got.n != 8 {
				t.Fatalf("after event 9: restored %d, %v; want the event-8 checkpoint", got.n, err)
			}
		}
	}
	if s.n != 10 {
		t.Fatalf("stopped at event %d, want 10", s.n)
	}
	got := &counter{}
	if err := NewCheckpointer(7, cfg, Options{}).Restore(path, got); err != nil || got.n != 10 {
		t.Fatalf("restored %d, %v; want the stop checkpoint at 10", got.n, err)
	}
	if err := NewCheckpointer(7, cfg, Options{StopAfterEvents: 1}).Boundary(1, s); !errors.Is(err, ErrStopped) {
		t.Fatalf("pathless stop: %v, want ErrStopped", err)
	}
}

// TestCheckpointerRestoreGates pins the order of the restore checks:
// a missing path, then the version gate (reported as corruption), then
// the config digest, then exact payload consumption.
func TestCheckpointerRestoreGates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := testConfig{Seed: 1, Scale: 0.1}
	if err := NewCheckpointer(2, cfg, Options{}).Save(path, &counter{n: 5}); err != nil {
		t.Fatal(err)
	}
	if err := NewCheckpointer(2, cfg, Options{}).Restore("", &counter{}); err == nil {
		t.Fatal("restore without a path succeeded")
	}
	err := NewCheckpointer(3, testConfig{Seed: 2}, Options{}).Restore(path, &counter{})
	if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "format v2, this build reads v3") {
		t.Fatalf("version gate: %v", err)
	}
	// The digest prints floats at round-trip precision: the nearest
	// neighbour of 0.1 is a different config.
	near := cfg
	near.Scale = 0.10000000000000002
	if err := NewCheckpointer(2, near, Options{}).Restore(path, &counter{}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("config gate: %v, want ErrConfigMismatch", err)
	}
	if err := NewCheckpointer(2, cfg, Options{}).Restore(path, emptyState{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("unconsumed payload: %v, want ErrCorruptSnapshot", err)
	}
	got := &counter{}
	if err := NewCheckpointer(2, cfg, Options{}).Restore(path, got); err != nil || got.n != 5 {
		t.Fatalf("restored %d, %v; want 5", got.n, err)
	}
}

// emptyState reads nothing, leaving the payload unconsumed.
type emptyState struct{}

func (emptyState) EncodeState(*Encoder) {}

func (emptyState) RestoreState(*Decoder) error { return nil }
