package loadgen

import (
	"cmp"
	"fmt"
	"sort"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the campaign's crash-tolerance layer. A checkpoint is
// one snapshot-envelope file capturing the controller's full state
// (allocator, auditor, breakers, clock, backlog, counters), every
// agent's rng position and arrival cursor, the open sessions, the
// event heap in its raw array layout, and the accumulated statistics.
// Checkpoints land only on event boundaries and the chaos schedule is
// recomputed from the config on resume, so a campaign killed at any
// boundary resumes to a Result byte-identical to the uninterrupted
// run — the property the kill-sweep test asserts.

// checkpointVersion is the current campaign checkpoint format. In
// version 2 the digest is the checkpoint driver's, and the nested
// controller state carries none.
const checkpointVersion = 2

// ErrStopped is returned by RunCheckpointed when the campaign halted
// at the StopAfterEvents boundary instead of draining. It is the
// checkpoint driver's snapshot.ErrStopped.
var ErrStopped = snapshot.ErrStopped

// RunCheckpointed executes the campaign like Run, additionally
// checkpointing through opts: every opts.EveryEvents event boundaries
// (default 4096), and at the StopAfterEvents boundary, where it
// returns ErrStopped.
func RunCheckpointed(cfg Config, opts snapshot.Options) (*Result, error) {
	return runCampaign(cfg, opts, false)
}

// Resume continues a campaign from the checkpoint at opts.Path,
// written by an earlier RunCheckpointed with the same Config. A
// corrupted or torn primary snapshot falls back to the previous good
// one; because the campaign is deterministic, resuming from an older
// boundary replays to the identical Result.
func Resume(cfg Config, opts snapshot.Options) (*Result, error) {
	return runCampaign(cfg, opts, true)
}

func runCampaign(cfg Config, opts snapshot.Options, resume bool) (*Result, error) {
	c, err := build(cfg)
	if err != nil {
		return nil, err
	}
	// The digest covers the controller as it was actually built: its
	// defaulted config, with the campaign seed in place of Ctrl.Seed.
	key := c.cfg
	key.Ctrl = c.srv.Config()
	opts.EveryEvents = cmp.Or(opts.EveryEvents, 4096)
	ck := snapshot.NewCheckpointer(checkpointVersion, key, opts)
	if resume {
		if err := ck.Restore(opts.Path, c); err != nil {
			return nil, err
		}
	}
	return c.run(ck)
}

// EncodeState serializes the full campaign at an event boundary.
func (c *campaign) EncodeState(e *snapshot.Encoder) {
	c.srv.EncodeState(e)

	e.Len(len(c.agents))
	for _, ag := range c.agents {
		e.RandState(ag.r.State())
		e.Int(ag.issued)
	}

	e.Len(len(c.sessions))
	ids := make([]int, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s := c.sessions[id]
		e.Int(id)
		e.Int(s.agent)
		e.Int(s.a)
		e.Int(s.b)
		e.Int(s.width)
		e.Int(int(s.phase))
		snapshot.Unit(e, s.firstAt)
		e.Int(s.circuit)
		e.Int(s.grantWidth)
		snapshot.Unit(e, s.openedAt)
	}

	// The event heap travels in its raw array layout, so the restored
	// heap pops in exactly the original order.
	e.Len(len(c.events))
	for _, ev := range c.events {
		snapshot.Unit(e, ev.at)
		e.Int(ev.seq)
		e.Int(int(ev.kind))
		e.Int(ev.agent)
		e.Int(ev.session)
		e.Int(ev.attempt)
		e.Int(ev.fault)
	}
	e.Int(c.seq)
	e.U64(c.processed)
	e.Int(c.nextSession)

	c.quant.EncodeState(e)
	for _, n := range c.counters() {
		e.Int(*n)
	}
	e.F64(c.goodputWS)
}

// counters lists the checkpointed campaign counters in payload order.
// EncodeState and RestoreState share the list, so the two cannot
// drift apart.
func (c *campaign) counters() [5]*int {
	return [5]*int{&c.requests, &c.attempts, &c.retries, &c.lost, &c.leaked}
}

// RestoreState replays a checkpoint payload into a freshly built
// campaign skeleton.
func (c *campaign) RestoreState(d *snapshot.Decoder) error {
	if err := c.srv.RestoreState(d); err != nil {
		return err
	}

	if n := d.Len(); d.Err() == nil && n != len(c.agents) {
		return fmt.Errorf("%w: checkpoint has %d agents, config says %d",
			snapshot.ErrCorruptSnapshot, n, len(c.agents))
	}
	for _, ag := range c.agents {
		ag.r.SetState(d.RandState())
		ag.issued = d.Int()
		if d.Err() == nil && (ag.issued < 0 || ag.issued > c.cfg.ArrivalsPerAgent) {
			return fmt.Errorf("%w: agent issued %d of %d arrivals",
				snapshot.ErrCorruptSnapshot, ag.issued, c.cfg.ArrivalsPerAgent)
		}
	}

	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.Int()
		s := &session{
			agent: d.Int(),
			a:     d.Int(),
			b:     d.Int(),
			width: d.Int(),
		}
		ph := d.Int()
		if ph < int(phaseEstablish) || ph > int(phaseRelease) {
			return fmt.Errorf("%w: session %d in unknown phase %d", snapshot.ErrCorruptSnapshot, id, ph)
		}
		s.phase = phase(ph)
		s.firstAt = snapshot.DecodeUnit[unit.Seconds](d)
		s.circuit = d.Int()
		s.grantWidth = d.Int()
		s.openedAt = snapshot.DecodeUnit[unit.Seconds](d)
		if s.agent < 0 || s.agent >= len(c.agents) {
			return fmt.Errorf("%w: session %d owned by unknown agent %d",
				snapshot.ErrCorruptSnapshot, id, s.agent)
		}
		if _, dup := c.sessions[id]; dup {
			return fmt.Errorf("%w: duplicate session %d", snapshot.ErrCorruptSnapshot, id)
		}
		c.sessions[id] = s
		if s.phase != phaseEstablish && s.circuit >= 0 {
			if _, ok := c.srv.Allocator().CircuitByID(s.circuit); !ok {
				return fmt.Errorf("%w: session %d references unknown circuit %d",
					snapshot.ErrCorruptSnapshot, id, s.circuit)
			}
			if _, dup := c.byCircuit[s.circuit]; dup {
				return fmt.Errorf("%w: circuit %d owned by two sessions", snapshot.ErrCorruptSnapshot, s.circuit)
			}
			c.byCircuit[s.circuit] = id
		}
	}

	c.events = c.events[:0]
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		ev := event{
			at:      snapshot.DecodeUnit[unit.Seconds](d),
			seq:     d.Int(),
			kind:    evKind(d.Int()),
			agent:   d.Int(),
			session: d.Int(),
			attempt: d.Int(),
			fault:   d.Int(),
		}
		if ev.kind < evArrival || ev.kind > evFault {
			return fmt.Errorf("%w: event of unknown kind %d", snapshot.ErrCorruptSnapshot, int(ev.kind))
		}
		if ev.kind == evFault && (ev.fault < 0 || ev.fault >= len(c.schedule)) {
			return fmt.Errorf("%w: fault event %d outside schedule of %d",
				snapshot.ErrCorruptSnapshot, ev.fault, len(c.schedule))
		}
		c.events = append(c.events, ev)
	}
	c.seq = d.Int()
	c.processed = d.U64()
	c.nextSession = d.Int()

	if err := c.quant.RestoreState(d); err != nil {
		return err
	}
	for _, n := range c.counters() {
		*n = d.Int()
	}
	c.goodputWS = d.F64()
	return d.Err()
}
