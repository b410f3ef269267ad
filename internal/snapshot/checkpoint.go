package snapshot

import (
	"errors"
	"fmt"
)

// This file is the checkpoint driver every crash-tolerant layer runs
// through: the fleet soak and the load campaign call Boundary from
// their event loops, and the controller daemon calls Save and Restore
// directly. A domain supplies only its State — what to encode and how
// to restore it. Cadence, the injected stop, the version gate, the
// .prev fallback and the config digest live here, once.

// ErrStopped is returned by Boundary when the run reached its
// StopAfterEvents boundary. The crash-injection harnesses use it to
// kill a run at a chosen event and resume it later.
var ErrStopped = errors.New("snapshot: run stopped at checkpoint boundary")

// ErrConfigMismatch is returned by Restore when the checkpoint was
// written under a different configuration: continuing it would
// silently break determinism instead of continuing the run.
var ErrConfigMismatch = errors.New("snapshot: checkpoint config does not match")

// Options configures periodic checkpointing of an event loop.
type Options struct {
	// Path is the checkpoint file; Write keeps the previous good
	// snapshot beside it (PrevPath) for torn-write fallback. Empty
	// disables checkpointing.
	Path string
	// EveryEvents is the checkpoint cadence in event boundaries. Each
	// domain documents the default it substitutes for zero.
	EveryEvents uint64
	// StopAfterEvents, when positive, halts the run with ErrStopped
	// once that many event boundaries have passed, writing a final
	// checkpoint first if Path is set.
	StopAfterEvents uint64
}

// State is a checkpointed domain's mutable state.
type State interface {
	// EncodeState appends the full state at a consistent boundary.
	EncodeState(e *Encoder)
	// RestoreState reads what EncodeState wrote into a freshly built
	// domain. Structural damage wraps ErrCorruptSnapshot.
	RestoreState(d *Decoder) error
}

// Checkpointer writes and restores one domain's checkpoints. It is
// not safe for concurrent use; each run owns its own.
type Checkpointer struct {
	opts    Options
	version uint32
	cfg     any
	digest  string // cfg's digest, computed on first use
	enc     Encoder
}

// NewCheckpointer returns the driver for a domain whose payload format
// is version and whose run is configured by cfg. cfg must be the
// domain's config after defaults, so two configs that behave the same
// digest the same, and must hold plain values, not pointers.
func NewCheckpointer(version uint32, cfg any, opts Options) *Checkpointer {
	return &Checkpointer{opts: opts, version: version, cfg: cfg}
}

// configDigest returns cfg printed with %#v: every leaf field at
// round-trip precision, complete by construction, so a field added
// later is covered without anyone remembering to add it. It is
// computed once, on the first save or restore, so runs that never
// checkpoint never pay for the reflection.
func (c *Checkpointer) configDigest() string {
	if c.digest == "" {
		c.digest = fmt.Sprintf("%#v", c.cfg)
	}
	return c.digest
}

// Boundary is called by an event loop after each processed event with
// the running event count. It writes a checkpoint when the cadence is
// due or the run stops here, and returns ErrStopped at the stop
// boundary.
func (c *Checkpointer) Boundary(events uint64, s State) error {
	stopping := c.opts.StopAfterEvents > 0 && events >= c.opts.StopAfterEvents
	if c.opts.Path != "" && (stopping || (c.opts.EveryEvents > 0 && events%c.opts.EveryEvents == 0)) {
		if err := c.Save(c.opts.Path, s); err != nil {
			return err
		}
	}
	if stopping {
		return ErrStopped
	}
	return nil
}

// Save writes the config digest and s's state to path through Write.
// The payload encoder is reused across saves, so a periodic cadence
// does not re-grow a large buffer every interval.
func (c *Checkpointer) Save(path string, s State) error {
	c.enc.Reset()
	c.enc.String(c.configDigest())
	s.EncodeState(&c.enc)
	return Write(path, c.version, c.enc.Bytes())
}

// Restore loads the checkpoint at path (falling back to its .prev
// rotation), refuses another payload version as corruption and
// another config as ErrConfigMismatch, then restores s and demands
// the payload be consumed exactly.
func (c *Checkpointer) Restore(path string, s State) error {
	if path == "" {
		return errors.New("snapshot: restore needs a checkpoint path")
	}
	version, payload, from, err := Load(path)
	if err != nil {
		return err
	}
	if version != c.version {
		return fmt.Errorf("%s: %w: checkpoint format v%d, this build reads v%d",
			from, ErrCorruptSnapshot, version, c.version)
	}
	d := NewDecoder(payload)
	if digest := d.String(); d.Err() == nil && digest != c.configDigest() {
		return fmt.Errorf("%s: %w", from, ErrConfigMismatch)
	}
	if err := s.RestoreState(d); err != nil {
		return err
	}
	return d.Finish()
}
