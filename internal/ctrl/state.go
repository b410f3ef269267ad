package ctrl

import (
	"fmt"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the controller's crash-tolerance layer. A server's full
// mutable state — allocator, auditor, per-region breakers, virtual
// clock, backlog and counters — serializes through the snapshot codec
// at request boundaries, so a controller killed at any boundary and
// restored from its last checkpoint continues bit-for-bit identically.
// The load generator embeds this state inside its own campaign
// checkpoint; the daemon writes it to a standalone file.

// checkpointVersion is the daemon checkpoint payload format. In
// version 2 the digest is the checkpoint driver's.
const checkpointVersion = 2

// EncodeState appends the server's full mutable state.
func (s *Server) EncodeState(e *snapshot.Encoder) {
	s.alloc.EncodeState(e)
	s.aud.EncodeState(e)
	e.Len(len(s.breakers))
	for _, b := range s.breakers {
		b.EncodeState(e)
	}
	snapshot.Unit(e, s.now)
	snapshot.Unit(e, s.busyUntil)
	e.Len(len(s.pending))
	for _, t := range s.pending {
		snapshot.Unit(e, t)
	}
	for _, c := range s.stats.counters() {
		e.Int(*c)
	}
}

// counters lists the checkpointed Stats counters in payload order.
// EncodeState and RestoreState share the list, so the two cannot
// drift apart. The plan-cache counters live in the allocator.
func (st *Stats) counters() [15]*int {
	return [15]*int{&st.Arrivals, &st.Served, &st.Degraded, &st.Shed, &st.DeadlineMiss,
		&st.BreakerRejects, &st.NoPath, &st.EndpointFailed, &st.UnknownCircuit, &st.BadRequest,
		&st.FaultsApplied, &st.Reroutes, &st.RerouteDegraded, &st.RerouteFailed, &st.CircuitsLost}
}

// RestoreState replays state captured by EncodeState into a freshly
// built server with the same Config. Structural corruption wraps
// ErrCorruptSnapshot; the config check is the checkpoint driver's.
func (s *Server) RestoreState(d *snapshot.Decoder) error {
	if err := s.alloc.RestoreState(d); err != nil {
		return err
	}
	if err := s.aud.RestoreState(d); err != nil {
		return err
	}
	if n := d.Len(); d.Err() == nil && n != len(s.breakers) {
		return fmt.Errorf("%w: checkpoint has %d breakers, config says %d",
			snapshot.ErrCorruptSnapshot, n, len(s.breakers))
	}
	for _, b := range s.breakers {
		if err := b.RestoreState(d); err != nil {
			return err
		}
	}
	s.now = snapshot.DecodeUnit[unit.Seconds](d)
	s.busyUntil = snapshot.DecodeUnit[unit.Seconds](d)
	// No cap check on the backlog length: releases are exempt from
	// queue-full shedding, so a live server's backlog legitimately
	// exceeds QueueCap whenever teardowns arrive at a full queue.
	// Len() is already bounded by the decoder's remaining bytes, and
	// the monotonicity check below catches structural damage.
	n := d.Len()
	s.pending = s.pending[:0]
	prev := unit.Seconds(0)
	for i := 0; i < n; i++ {
		t := snapshot.DecodeUnit[unit.Seconds](d)
		if d.Err() == nil && t < prev {
			return fmt.Errorf("%w: backlog completion times out of order", snapshot.ErrCorruptSnapshot)
		}
		prev = t
		s.pending = append(s.pending, t)
	}
	for _, c := range s.stats.counters() {
		*c = d.Int()
	}
	return d.Err()
}

// SaveCheckpoint atomically writes the server's state to path, keeping
// the previous good snapshot beside it for torn-write fallback.
func (s *Server) SaveCheckpoint(path string) error {
	return s.ckpt.Save(path, s)
}

// LoadCheckpoint builds a server from cfg and restores the checkpoint
// at path into it. A corrupted or torn primary snapshot falls back to
// the previous good one (snapshot.Load's contract); a checkpoint
// written under another config returns ErrConfigMismatch.
func LoadCheckpoint(cfg Config, path string) (*Server, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.ckpt.Restore(path, s); err != nil {
		return nil, err
	}
	return s, nil
}
