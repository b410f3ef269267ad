// Package fleet is a deterministic discrete-event soak simulator for
// the photonic rack: days of simulated time in which Poisson hardware
// faults arrive from the chaos engine, a self-healing control loop
// reroutes, degrades and splices tenant circuits around the damage,
// repair crews restore components after seeded MTTR delays, a spare
// chip pool depletes and replenishes, and admission control sheds and
// re-admits tenant jobs as capacity moves. The paper's availability
// argument (§5, Figure 6) rests on exactly this regime — compounding
// faults over long horizons, not single-fault trials — and the
// invariant auditor rides along for the whole soak, re-checking the
// shared optical state after every mutation.
//
// A soak is a pure function of its Config: the fault schedule, repair
// durations and job placement all derive from split streams of the
// seed, and every tie in the event queue is broken deterministically,
// so equal-seed runs produce byte-identical time series regardless of
// how a campaign fans trials across CPUs.
package fleet

import (
	"container/heap"
	"fmt"
	"sort"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/sketch"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// SampleMode selects how a soak retains its availability time series.
type SampleMode int

const (
	// SampleStreaming, the default, holds a fixed-capacity reservoir
	// of rows plus a streaming quantile sketch of the goodput column:
	// memory stays flat no matter how long the horizon. Soaks shorter
	// than ReservoirCap rows are still retained exactly, so the
	// default differs from SampleExact only at long horizons.
	SampleStreaming SampleMode = iota
	// SampleExact appends every row — O(Horizon/SampleEvery) memory —
	// for golden time series that must reproduce byte-identically.
	SampleExact
)

// Config parameterizes one soak. The zero value of every field takes
// the default documented on it; Run never mutates the caller's copy.
type Config struct {
	// Seed drives the fault schedule, repair durations and job
	// placement through independent split streams.
	Seed uint64
	// Wafers is the rack size (default 2, the TPUv4 rack of PR 2's
	// experiments).
	Wafers int
	// Wafer is the per-wafer hardware configuration (default
	// wafer.DefaultConfig).
	Wafer wafer.Config
	// Horizon is the simulated soak duration (default 3 days).
	Horizon unit.Seconds
	// SampleEvery is the availability time-series cadence (default
	// Horizon/72, one row per simulated hour at the default horizon).
	SampleEvery unit.Seconds
	// Rates are the chaos engine's per-class MTBFs; a zero value takes
	// DefaultRates.
	Rates chaos.Rates
	// MeanRepair is the per-class mean time to repair; zero entries
	// take DefaultMeanRepair.
	MeanRepair [chaos.NumClasses]unit.Seconds
	// Crews bounds concurrent repairs; excess faults queue for service
	// in arrival order (default 2).
	Crews int
	// Spares is the number of chips held out of tenant placement as a
	// replacement pool, taken from the top of the chip range
	// (default 4).
	Spares int
	// Jobs is the number of tenant jobs, each wanting one circuit
	// between two dedicated chips (default 12).
	Jobs int
	// Width is the wavelength width each job requests (default 4).
	Width int
	// Audit selects the invariant auditor's mode for the soak
	// (default Off; the campaign runs Paranoid).
	Audit invariant.Mode
	// SampleMode selects streaming (bounded-memory, the default) or
	// exact retention of the availability time series.
	SampleMode SampleMode
	// ReservoirCap bounds the rows retained in streaming mode
	// (default 512).
	ReservoirCap int
}

// DefaultRates returns the soak's fault-arrival defaults: every class
// active, with rack-wide MTBFs dense enough that a three-day soak
// sees a few hundred faults.
func DefaultRates(horizon unit.Seconds) chaos.Rates {
	var r chaos.Rates
	for c := 0; c < chaos.NumClasses; c++ {
		r.MTBF[c] = horizon / 30
	}
	return r
}

// DefaultMeanRepair returns the per-class MTTR means: hours-scale
// crew work, with whole-chip replacement the slowest.
func DefaultMeanRepair() [chaos.NumClasses]unit.Seconds {
	var m [chaos.NumClasses]unit.Seconds
	for c := 0; c < chaos.NumClasses; c++ {
		m[c] = 30 * unit.Minute
	}
	m[chaos.ChipFailure] = 2 * unit.Hour
	return m
}

func (c Config) withDefaults() Config {
	if c.Wafers == 0 {
		c.Wafers = 2
	}
	if c.Wafer.Rows == 0 {
		c.Wafer = wafer.DefaultConfig()
	}
	if c.Horizon == 0 {
		c.Horizon = 3 * unit.Day
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = c.Horizon / 72
	}
	zeroRates := true
	for _, m := range c.Rates.MTBF {
		if m != 0 {
			zeroRates = false
		}
	}
	if zeroRates {
		c.Rates = DefaultRates(c.Horizon)
	}
	def := DefaultMeanRepair()
	for i, m := range c.MeanRepair {
		if m == 0 {
			c.MeanRepair[i] = def[i]
		}
	}
	if c.Crews == 0 {
		c.Crews = 2
	}
	if c.Spares == 0 {
		c.Spares = 4
	}
	if c.Jobs == 0 {
		c.Jobs = 12
	}
	if c.Width == 0 {
		c.Width = 4
	}
	if c.ReservoirCap == 0 {
		c.ReservoirCap = 512
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Wafers < 2:
		return fmt.Errorf("fleet: need at least two wafers, got %d", c.Wafers)
	case c.Horizon <= 0 || c.SampleEvery <= 0:
		return fmt.Errorf("fleet: non-positive horizon or sample cadence")
	case c.Crews < 1:
		return fmt.Errorf("fleet: need at least one repair crew")
	case c.Spares < 0:
		return fmt.Errorf("fleet: negative spare pool")
	case c.Jobs < 1 || c.Width < 1:
		return fmt.Errorf("fleet: need at least one job of width >= 1")
	case c.SampleMode != SampleStreaming && c.SampleMode != SampleExact:
		return fmt.Errorf("fleet: unknown sample mode %d", int(c.SampleMode))
	case c.ReservoirCap < 1:
		return fmt.Errorf("fleet: reservoir capacity %d < 1", c.ReservoirCap)
	}
	chips := c.Wafers * c.Wafer.Tiles()
	if 2*c.Jobs+c.Spares > chips {
		return fmt.Errorf("fleet: %d jobs + %d spares need %d chips, rack has %d",
			c.Jobs, c.Spares, 2*c.Jobs+c.Spares, chips)
	}
	return nil
}

// Sample is one row of the availability time series.
type Sample struct {
	// T is the simulated sample time.
	T unit.Seconds
	// Up, Degraded and Shed partition the tenant jobs: full-width
	// circuit, narrower-than-requested circuit, or no circuit at all.
	Up, Degraded, Shed int
	// Goodput is the fleet's delivered fraction of requested
	// bandwidth: the sum of live circuit widths over the sum of
	// requested widths.
	Goodput float64
	// Faults and Repairs are cumulative counts at the sample time.
	Faults, Repairs int
	// MeanBlast is the mean number of circuits torn down per fault so
	// far — the dynamic blast radius.
	MeanBlast float64
	// Spares is the current replacement-chip pool size.
	Spares int
	// Violations is the auditor's cumulative violation count.
	Violations int
}

// Outcome aggregates one soak.
type Outcome struct {
	// Samples is the availability time series. In SampleExact mode it
	// holds one row per SampleEvery; in SampleStreaming mode it holds
	// a uniform reservoir of at most ReservoirCap rows, sorted by
	// time. SamplesSeen always counts the full series.
	Samples []Sample
	// SamplesSeen is the number of time-series rows the soak
	// produced, whether or not they were all retained.
	SamplesSeen int
	// Events counts the processed event boundaries — repairs, faults
	// and samples — over the whole soak; checkpoints land on these
	// boundaries.
	Events uint64
	// Faults and Repairs are the totals over the horizon.
	Faults, Repairs int
	// ShedEvents counts every time admission control dropped a job;
	// Readmissions counts jobs brought back after repairs.
	ShedEvents, Readmissions int
	// Reroutes counts circuits re-established after a fault tore them
	// down; Splices counts reroutes that needed a spare chip swapped
	// in for a dead endpoint.
	Reroutes, Splices int
	// MinSpares is the spare pool's low-water mark.
	MinSpares int
	// Availability is the mean over samples of the live-job fraction
	// (up or degraded); MeanGoodput averages the goodput column.
	Availability, MeanGoodput float64
	// GoodputP05 and GoodputP50 are streaming quantile estimates of
	// the goodput column — the tail and the median of delivered
	// bandwidth — computed in both sample modes from the same sketch.
	GoodputP05, GoodputP50 float64
	// Violations and Audits report the invariant auditor's findings
	// and effort over the whole soak.
	Violations, Audits int
}

// jobState tracks one tenant job through the soak.
type jobState int

const (
	jobUp jobState = iota
	jobDegraded
	jobShed
)

type job struct {
	a, b    int
	want    int
	circuit *route.Circuit
	state   jobState
}

// repairEvent is one crew finishing work on a fault.
type repairEvent struct {
	at    unit.Seconds
	seq   int
	fault chaos.Fault
}

// repairQueue is a min-heap on (completion time, service order).
type repairQueue []repairEvent

func (q repairQueue) Len() int { return len(q) }
func (q repairQueue) Less(i, j int) bool {
	if q[i].at < q[j].at {
		return true
	}
	if q[j].at < q[i].at {
		return false
	}
	return q[i].seq < q[j].seq
}
func (q repairQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *repairQueue) Push(x any)   { *q = append(*q, x.(repairEvent)) }
func (q *repairQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// soak is the running state of one Run.
type soak struct {
	cfg   Config
	alloc *route.Allocator
	rack  *wafer.Rack
	aud   *invariant.Auditor
	mttr  *rng.Rand

	jobs    []*job
	jobOf   map[int]*job // established circuit ID -> owning job
	spares  []int        // ascending chip ids
	pending []chaos.Fault
	busy    int
	repairs repairQueue
	seq     int

	// faults is the precomputed fault schedule. It is a pure function
	// of the config, so a resume rebuilds it and only the cursor fi
	// travels in the checkpoint.
	faults []chaos.Fault

	// Event-loop cursors, part of the checkpoint: the index into the
	// fault schedule, the next sample time, and the count of processed
	// event boundaries.
	fi         int
	nextSample unit.Seconds
	events     uint64

	// Streaming aggregates: running sums for the headline means
	// (accumulated at sample time in chronological order, so both
	// sample modes produce bit-identical results), a bounded
	// reservoir of rows, and a quantile sketch of the goodput column.
	liveSum float64
	goodSum float64
	res     *sketch.Reservoir[Sample]
	quant   *sketch.Quantile

	out      Outcome
	blastSum int
}

// buildSoak constructs the soak skeleton — hardware, allocator,
// auditor, RNG streams, sketches, fault schedule — without tenant
// placement, which is the part a resume replays from the checkpoint
// instead. cfg must already have defaults applied and be valid.
func buildSoak(cfg Config) (*soak, error) {
	rack, err := wafer.NewRack(cfg.Wafer, cfg.Wafers)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &soak{
		cfg:        cfg,
		rack:       rack,
		alloc:      route.NewAllocator(rack, root.Split("loss")),
		mttr:       root.Split("fleet/mttr"),
		jobOf:      make(map[int]*job),
		nextSample: cfg.SampleEvery,
		res:        sketch.NewReservoir[Sample](cfg.ReservoirCap, root.Split("fleet/reservoir")),
		quant:      sketch.NewQuantile(0, root.Split("fleet/sketch")),
	}
	s.aud = invariant.Attach(s.alloc, cfg.Audit)

	// The whole fault schedule is precomputed: arrivals are
	// independent of everything the soak does.
	cfgW := rack.Config()
	eng, err := chaos.NewEngine(cfg.Seed, chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            cfgW.Rows,
		Cols:            cfgW.Cols,
		Trunks:          rack.NumTrunks(),
	}, cfg.Rates)
	if err != nil {
		return nil, err
	}
	s.faults = eng.Schedule(cfg.Horizon)
	return s, nil
}

// place runs tenant placement: a seeded permutation of the non-spare
// chips pairs off into job endpoints; the top Spares chip ids start
// in the replacement pool.
func (s *soak) place() {
	chips := s.rack.NumChips()
	for chip := chips - s.cfg.Spares; chip < chips; chip++ {
		s.spares = append(s.spares, chip)
	}
	s.out.MinSpares = len(s.spares)
	perm := rng.New(s.cfg.Seed).Split("fleet/jobs").Perm(chips - s.cfg.Spares)
	for i := 0; i < s.cfg.Jobs; i++ {
		j := &job{a: perm[2*i], b: perm[2*i+1], want: s.cfg.Width}
		s.jobs = append(s.jobs, j)
		s.establish(j, 0)
	}
}

// Run executes the soak and returns its availability time series. The
// returned error is non-nil when the fault schedule cannot be applied
// or when the invariant auditor found violations (wrapping
// invariant.ErrViolated) — a clean soak on corrupted logic must not
// look like a clean soak on correct logic.
func Run(cfg Config) (*Outcome, error) {
	return RunCheckpointed(cfg, snapshot.Options{})
}

// run drives the event loop to the horizon (or to an injected stop).
// It merges the three ordered event streams; ties are broken by kind
// — repairs land before faults, faults before samples — so the order
// is total and reproducible. ck checkpoints at each event boundary.
func (s *soak) run(ck *snapshot.Checkpointer) (*Outcome, error) {
	for {
		const inf = unit.Seconds(1e18)
		ft, rt, st := inf, inf, inf
		if s.fi < len(s.faults) {
			ft = s.faults[s.fi].Time
		}
		// Repairs finishing after the horizon are outside the soak:
		// the clock stops at Horizon, backlog and all.
		if len(s.repairs) > 0 && s.repairs[0].at <= s.cfg.Horizon {
			rt = s.repairs[0].at
		}
		if s.nextSample <= s.cfg.Horizon {
			st = s.nextSample
		}
		switch {
		case rt == inf && ft == inf && st == inf:
			s.finish()
			return &s.out, s.aud.Err()
		case rt <= ft && rt <= st:
			ev := heap.Pop(&s.repairs).(repairEvent)
			s.completeRepair(ev)
		case ft <= st:
			if err := s.applyFault(s.faults[s.fi]); err != nil {
				return nil, err
			}
			s.fi++
		default:
			s.sample(s.nextSample)
			s.nextSample += s.cfg.SampleEvery
		}
		s.events++
		if err := ck.Boundary(s.events, s); err != nil {
			return nil, err
		}
	}
}

// establish brings a job's circuit up (initially or after repairs),
// degrading the width when the full request does not fit.
func (s *soak) establish(j *job, now unit.Seconds) bool {
	c, degraded, err := s.alloc.EstablishDegraded(route.Request{A: j.a, B: j.b, Width: j.want}, now)
	if err != nil {
		j.circuit = nil
		j.state = jobShed
		return false
	}
	j.circuit = c
	s.jobOf[c.ID] = j
	if degraded {
		j.state = jobDegraded
	} else {
		j.state = jobUp
	}
	return true
}

// applyFault routes one fault through the hardware and runs the
// self-healing loop over every circuit it tore down.
func (s *soak) applyFault(f chaos.Fault) error {
	broken, err := s.alloc.ApplyFault(f)
	if err != nil {
		return fmt.Errorf("fleet: %v: %w", f, err)
	}
	s.out.Faults++
	s.blastSum += len(broken)
	if f.Class == chaos.ChipFailure {
		// A dead spare leaves the pool until its repair completes.
		for i, chip := range s.spares {
			if chip == f.Chip {
				s.spares = append(s.spares[:i], s.spares[i+1:]...)
				break
			}
		}
	}
	s.scheduleRepair(f)
	for _, c := range broken {
		j, ok := s.jobOf[c.ID]
		if !ok {
			continue
		}
		delete(s.jobOf, c.ID)
		s.heal(j, f.Time)
	}
	return nil
}

// heal is the self-healing control loop for one job whose circuit a
// fault tore down: splice a spare chip over any dead endpoint, then
// reroute at full width, degrading toward width 1; when nothing fits,
// admission control sheds the job until repairs free capacity.
func (s *soak) heal(j *job, now unit.Seconds) {
	j.circuit = nil
	spliced := false
	for _, ep := range []*int{&j.a, &j.b} {
		if s.rack.TileOf(*ep).ChipHealthy() {
			continue
		}
		spare, ok := s.takeSpare()
		if !ok {
			j.state = jobShed
			s.out.ShedEvents++
			return
		}
		*ep = spare
		spliced = true
	}
	if !s.establish(j, now) {
		s.out.ShedEvents++
		return
	}
	s.out.Reroutes++
	if spliced {
		s.out.Splices++
	}
}

// takeSpare pops the lowest-id healthy spare chip.
func (s *soak) takeSpare() (int, bool) {
	for i, chip := range s.spares {
		if s.rack.TileOf(chip).ChipHealthy() {
			s.spares = append(s.spares[:i], s.spares[i+1:]...)
			if len(s.spares) < s.out.MinSpares {
				s.out.MinSpares = len(s.spares)
			}
			return chip, true
		}
	}
	return 0, false
}

// scheduleRepair queues the fault for a crew; a free crew starts
// immediately, otherwise the fault waits in arrival order.
func (s *soak) scheduleRepair(f chaos.Fault) {
	s.pending = append(s.pending, f)
	s.dispatch(f.Time)
}

// dispatch hands queued faults to free crews. Repair durations draw
// from the dedicated MTTR stream in service-start order, which the
// deterministic event order fixes.
func (s *soak) dispatch(now unit.Seconds) {
	for s.busy < s.cfg.Crews && len(s.pending) > 0 {
		f := s.pending[0]
		s.pending = s.pending[1:]
		s.busy++
		d := unit.Seconds(s.mttr.Exp(float64(s.cfg.MeanRepair[f.Class])))
		heap.Push(&s.repairs, repairEvent{at: now + d, seq: s.seq, fault: f})
		s.seq++
	}
}

// completeRepair restores the failed component, returns repaired
// chips to the spare pool, and lets admission control re-admit shed
// jobs and upgrade degraded ones against the recovered capacity.
func (s *soak) completeRepair(ev repairEvent) {
	f := ev.fault
	switch f.Class {
	case chaos.LaserDeath:
		s.rack.TileOf(f.Chip).RepairLasers(1)
	case chaos.MZIStuck:
		_ = s.rack.TileOf(f.Chip).RepairSwitch(f.Switch)
	case chaos.WaveguideLoss:
		o := wafer.Vertical
		if f.Horizontal {
			o = wafer.Horizontal
		}
		_ = s.rack.Wafer(f.Wafer).RepairSegment(o, f.Lane, f.Pos)
	case chaos.FiberCut:
		s.alloc.RestoreFiberRow(f.Trunk, f.Row)
	case chaos.ChipFailure:
		s.rack.TileOf(f.Chip).RepairChip()
		if !s.chipInUse(f.Chip) {
			s.returnSpare(f.Chip)
		}
	}
	s.out.Repairs++
	s.busy--
	// Hardware repairs bypass the allocator, so tell the auditor
	// directly; fiber-row restoration already fired the hook.
	if f.Class != chaos.FiberCut {
		s.aud.Mutated("repair")
	}
	s.dispatch(ev.at)
	s.recover(ev.at)
}

// chipInUse reports whether a chip is an endpoint of any job or
// already pooled as a spare.
func (s *soak) chipInUse(chip int) bool {
	for _, j := range s.jobs {
		if j.a == chip || j.b == chip {
			return true
		}
	}
	for _, c := range s.spares {
		if c == chip {
			return true
		}
	}
	return false
}

// returnSpare inserts a repaired chip back into the pool, keeping it
// sorted so takeSpare stays deterministic.
func (s *soak) returnSpare(chip int) {
	at := len(s.spares)
	for i, c := range s.spares {
		if c > chip {
			at = i
			break
		}
	}
	s.spares = append(s.spares, 0)
	copy(s.spares[at+1:], s.spares[at:])
	s.spares[at] = chip
}

// recover is admission control's reaction to restored capacity: shed
// jobs are re-admitted and degraded jobs retry their full width, in
// job order.
func (s *soak) recover(now unit.Seconds) {
	for _, j := range s.jobs {
		switch j.state {
		case jobShed:
			if s.rack.TileOf(j.a).ChipHealthy() && s.rack.TileOf(j.b).ChipHealthy() && s.establish(j, now) {
				s.out.Readmissions++
			}
		case jobDegraded:
			// Upgrade by teardown-and-retry: the released resources are
			// back in the pool, so the retry finds at least the old
			// degraded path unless a new fault landed on it meanwhile.
			old := j.circuit
			s.alloc.Release(old)
			delete(s.jobOf, old.ID)
			if !s.establish(j, now) {
				s.out.ShedEvents++
			}
		}
	}
}

// sample appends one time-series row.
func (s *soak) sample(t unit.Seconds) {
	row := Sample{
		T:          t,
		Faults:     s.out.Faults,
		Repairs:    s.out.Repairs,
		Spares:     len(s.spares),
		Violations: s.aud.Count(),
	}
	wantSum, haveSum := 0, 0
	for _, j := range s.jobs {
		wantSum += j.want
		switch j.state {
		case jobUp:
			row.Up++
			haveSum += j.circuit.Width
		case jobDegraded:
			row.Degraded++
			haveSum += j.circuit.Width
		case jobShed:
			row.Shed++
		}
	}
	if wantSum > 0 {
		row.Goodput = float64(haveSum) / float64(wantSum)
	}
	if s.out.Faults > 0 {
		row.MeanBlast = float64(s.blastSum) / float64(s.out.Faults)
	}
	// The headline means accumulate here, in chronological order, so
	// both sample modes run the identical float additions and agree
	// bit for bit; the sketch sees every row in both modes too.
	s.liveSum += float64(row.Up+row.Degraded) / float64(len(s.jobs))
	s.goodSum += row.Goodput
	s.quant.Add(row.Goodput)
	s.out.SamplesSeen++
	if s.cfg.SampleMode == SampleExact {
		s.out.Samples = append(s.out.Samples, row)
	} else {
		s.res.Add(row)
	}
}

// finish folds the time series into the headline aggregates.
func (s *soak) finish() {
	s.out.Violations = s.aud.Count()
	s.out.Audits = s.aud.Audits()
	s.out.Events = s.events
	if s.cfg.SampleMode != SampleExact {
		s.out.Samples = s.res.Items()
		// Reservoir eviction scrambles slot order; sample times are
		// unique, so sorting restores the chronological series.
		sort.Slice(s.out.Samples, func(i, j int) bool {
			return s.out.Samples[i].T < s.out.Samples[j].T
		})
	}
	if s.out.SamplesSeen == 0 {
		return
	}
	n := float64(s.out.SamplesSeen)
	s.out.Availability = s.liveSum / n
	s.out.MeanGoodput = s.goodSum / n
	s.out.GoodputP05 = s.quant.Query(0.05)
	s.out.GoodputP50 = s.quant.Query(0.50)
}
