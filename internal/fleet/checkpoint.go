package fleet

import (
	"cmp"
	"fmt"

	"lightpath/internal/chaos"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the soak's crash-tolerance layer. A checkpoint is one
// snapshot-envelope file capturing everything the event loop needs to
// continue: RNG stream positions, the allocator and hardware state,
// job/spare/crew/repair-queue state, accumulated statistics and the
// loop cursors. Checkpoints land only on event boundaries, and the
// fault schedule is recomputed from the config on resume, so the file
// stays small and a resumed soak produces an Outcome byte-identical
// to the uninterrupted run — the property the crash-injection tests
// sweep over every boundary.

// checkpointVersion is the current checkpoint payload format. In
// version 2 the digest is the checkpoint driver's.
const checkpointVersion = 2

// RunCheckpointed executes the soak and returns its availability time
// series. The returned error is non-nil when the fault schedule cannot
// be applied or when the invariant auditor found violations (wrapping
// invariant.ErrViolated) — a clean soak on corrupted logic must not
// look like a clean soak on correct logic. With a non-empty opts.Path
// it checkpoints every opts.EveryEvents event boundaries (default
// 1024), and at the StopAfterEvents boundary, where it returns
// snapshot.ErrStopped; the zero Options runs without checkpoints.
func RunCheckpointed(cfg Config, opts snapshot.Options) (*Outcome, error) {
	return runSoak(cfg, opts, false)
}

// Resume continues a soak from the checkpoint at opts.Path, written
// by an earlier RunCheckpointed with the same Config. A corrupted or
// torn primary snapshot falls back to the previous good one; because
// the soak is deterministic, resuming from an older boundary replays
// to the identical Outcome. Checkpointing continues under opts.
func Resume(cfg Config, opts snapshot.Options) (*Outcome, error) {
	return runSoak(cfg, opts, true)
}

func runSoak(cfg Config, opts snapshot.Options, resume bool) (*Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := buildSoak(cfg)
	if err != nil {
		return nil, err
	}
	opts.EveryEvents = cmp.Or(opts.EveryEvents, 1024)
	ck := snapshot.NewCheckpointer(checkpointVersion, cfg, opts)
	if resume {
		err = ck.Restore(opts.Path, s)
	} else {
		s.place()
	}
	if err != nil {
		return nil, err
	}
	return s.run(ck)
}

// EncodeState serializes the full soak state at an event boundary.
func (s *soak) EncodeState(e *snapshot.Encoder) {
	e.U64(s.events)
	e.Int(s.fi)
	snapshot.Unit(e, s.nextSample)
	e.RandState(s.mttr.State())
	s.alloc.EncodeState(e)
	s.aud.EncodeState(e)

	e.Len(len(s.jobs))
	for _, j := range s.jobs {
		e.Int(j.a)
		e.Int(j.b)
		e.Int(j.want)
		e.Int(int(j.state))
		cid := -1
		if j.circuit != nil {
			cid = j.circuit.ID
		}
		e.Int(cid)
	}
	e.Len(len(s.spares))
	for _, chip := range s.spares {
		e.Int(chip)
	}
	e.Len(len(s.pending))
	for _, f := range s.pending {
		encodeFault(e, f)
	}
	e.Int(s.busy)
	// The repair heap travels in its array layout, so the restored
	// heap pops in exactly the original order.
	e.Len(len(s.repairs))
	for _, ev := range s.repairs {
		snapshot.Unit(e, ev.at)
		e.Int(ev.seq)
		encodeFault(e, ev.fault)
	}
	e.Int(s.seq)

	for _, c := range s.counters() {
		e.Int(*c)
	}
	e.F64(s.liveSum)
	e.F64(s.goodSum)
	e.Len(len(s.out.Samples))
	for _, row := range s.out.Samples {
		encodeSample(e, row)
	}
	s.res.EncodeState(e, encodeSample)
	s.quant.EncodeState(e)
}

// counters lists the checkpointed outcome counters in payload order.
// EncodeState and RestoreState share the list, so the two cannot
// drift apart.
func (s *soak) counters() [9]*int {
	o := &s.out
	return [9]*int{&o.Faults, &o.Repairs, &o.ShedEvents, &o.Readmissions, &o.Reroutes,
		&o.Splices, &o.MinSpares, &o.SamplesSeen, &s.blastSum}
}

// RestoreState replays a checkpoint payload into a freshly built soak
// skeleton.
func (s *soak) RestoreState(d *snapshot.Decoder) error {
	s.events = d.U64()
	s.fi = d.Int()
	s.nextSample = snapshot.DecodeUnit[unit.Seconds](d)
	s.mttr.SetState(d.RandState())
	if err := s.alloc.RestoreState(d); err != nil {
		return err
	}
	if err := s.aud.RestoreState(d); err != nil {
		return err
	}
	if d.Err() == nil && (s.fi < 0 || s.fi > len(s.faults)) {
		return fmt.Errorf("%w: fault cursor %d outside schedule of %d",
			snapshot.ErrCorruptSnapshot, s.fi, len(s.faults))
	}

	if n := d.Len(); d.Err() == nil && n != s.cfg.Jobs {
		return fmt.Errorf("%w: checkpoint has %d jobs, config says %d",
			snapshot.ErrCorruptSnapshot, n, s.cfg.Jobs)
	}
	for i := 0; i < s.cfg.Jobs && d.Err() == nil; i++ {
		j := &job{a: d.Int(), b: d.Int(), want: d.Int()}
		st := d.Int()
		if st < int(jobUp) || st > int(jobShed) {
			return fmt.Errorf("%w: job %d in unknown state %d", snapshot.ErrCorruptSnapshot, i, st)
		}
		j.state = jobState(st)
		if cid := d.Int(); cid >= 0 {
			c, ok := s.alloc.CircuitByID(cid)
			if !ok {
				return fmt.Errorf("%w: job %d references unknown circuit %d",
					snapshot.ErrCorruptSnapshot, i, cid)
			}
			if _, dup := s.jobOf[cid]; dup {
				return fmt.Errorf("%w: circuit %d owned by two jobs", snapshot.ErrCorruptSnapshot, cid)
			}
			// Re-link to the allocator's own object: Release compares
			// pointers, so a decoded copy would leak the circuit.
			j.circuit = c
			s.jobOf[cid] = j
		}
		s.jobs = append(s.jobs, j)
	}
	n := d.Len()
	for i := 0; i < n; i++ {
		s.spares = append(s.spares, d.Int())
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		s.pending = append(s.pending, decodeFault(d))
	}
	s.busy = d.Int()
	n = d.Len()
	for i := 0; i < n; i++ {
		s.repairs = append(s.repairs, repairEvent{
			at:    snapshot.DecodeUnit[unit.Seconds](d),
			seq:   d.Int(),
			fault: decodeFault(d),
		})
	}
	if d.Err() == nil && s.busy != len(s.repairs) {
		return fmt.Errorf("%w: %d busy crews but %d in-flight repairs",
			snapshot.ErrCorruptSnapshot, s.busy, len(s.repairs))
	}
	s.seq = d.Int()

	for _, c := range s.counters() {
		*c = d.Int()
	}
	s.liveSum = d.F64()
	s.goodSum = d.F64()
	n = d.Len()
	for i := 0; i < n; i++ {
		s.out.Samples = append(s.out.Samples, decodeSample(d))
	}
	if err := s.res.RestoreState(d, decodeSample); err != nil {
		return err
	}
	return s.quant.RestoreState(d)
}

func encodeFault(e *snapshot.Encoder, f chaos.Fault) {
	snapshot.Unit(e, f.Time)
	e.Int(int(f.Class))
	e.Int(f.Chip)
	e.Int(f.Switch)
	e.Int(f.Wafer)
	e.Bool(f.Horizontal)
	e.Int(f.Lane)
	e.Int(f.Pos)
	e.F64(f.ExtraLossDB)
	e.Int(f.Trunk)
	e.Int(f.Row)
}

func decodeFault(d *snapshot.Decoder) chaos.Fault {
	return chaos.Fault{
		Time:        snapshot.DecodeUnit[unit.Seconds](d),
		Class:       chaos.Class(d.Int()),
		Chip:        d.Int(),
		Switch:      d.Int(),
		Wafer:       d.Int(),
		Horizontal:  d.Bool(),
		Lane:        d.Int(),
		Pos:         d.Int(),
		ExtraLossDB: d.F64(),
		Trunk:       d.Int(),
		Row:         d.Int(),
	}
}

func encodeSample(e *snapshot.Encoder, row Sample) {
	snapshot.Unit(e, row.T)
	e.Int(row.Up)
	e.Int(row.Degraded)
	e.Int(row.Shed)
	e.F64(row.Goodput)
	e.Int(row.Faults)
	e.Int(row.Repairs)
	e.F64(row.MeanBlast)
	e.Int(row.Spares)
	e.Int(row.Violations)
}

func decodeSample(d *snapshot.Decoder) Sample {
	return Sample{
		T:          snapshot.DecodeUnit[unit.Seconds](d),
		Up:         d.Int(),
		Degraded:   d.Int(),
		Shed:       d.Int(),
		Goodput:    d.F64(),
		Faults:     d.Int(),
		Repairs:    d.Int(),
		MeanBlast:  d.F64(),
		Spares:     d.Int(),
		Violations: d.Int(),
	}
}
