package core

import (
	"fmt"
	"sort"
	"sync"

	"lightpath/internal/chaos"
	"lightpath/internal/collective"
	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// chaosScratch backs one fault run's buffers: the arena holds the
// input ramp, every chip's buffer and the replacement's checkpoint,
// fully rewritten (never zeroed) each run; ref holds the reference
// reduction. The pool is shared across fabrics because a campaign
// clones a fresh Fabric per trial — pooling lets a few arenas serve
// the whole campaign, sequential or fanned out, instead of each trial
// allocating (and the collector retiring) tens of megabytes.
type chaosScratch struct {
	state collective.State
	arena []float64
	ref   []float64
}

var chaosScratchPool = sync.Pool{New: func() any { return new(chaosScratch) }}

// This file is the top of the failure lifecycle: it executes a planned
// AllReduce step by step against real buffers and a simulated clock,
// kills a chip mid-step, and drives the recovery — detect the failure,
// tear down the victim's circuits, splice a replacement chip in over
// fresh optical circuits, restore the victim's checkpoint, and resume
// the collective from the interrupted step. The run proves the paper's
// §4.2 argument dynamically: the collective still computes the right
// answer, recovery costs microseconds (MZI settling, not rack
// migration), and only the victim's slice ever stalls.

// failFraction is how far through the interrupted step's data phase
// the chip dies. Fixed (rather than sampled) so recovery accounting is
// reproducible byte for byte.
const failFraction = 0.5

// ChaosPolicy configures failure detection and repair for a
// fault-injected collective.
type ChaosPolicy struct {
	// Detection is the time between the chip dying and the fabric
	// manager acting on it (heartbeat timeout plus control-plane
	// latency).
	Detection unit.Seconds
	// Width is the wavelength width requested for repair circuits;
	// graceful degradation may halve it when the fabric is fragmented.
	Width int
}

// DefaultChaosPolicy matches the netsim retry defaults: 10 us
// detection, width-4 repair circuits (the Figure 7 width).
func DefaultChaosPolicy() ChaosPolicy {
	return ChaosPolicy{Detection: 10 * unit.Microsecond, Width: 4}
}

// ChaosOutcome reports one fault-injected AllReduce run.
type ChaosOutcome struct {
	// Correct reports that every surviving chip's final buffer equals
	// the reference reduction of the original inputs — the victim's
	// contribution included.
	Correct bool
	// Victim and Replacement are the failed chip and the spare spliced
	// in for it.
	Victim, Replacement int
	// RepairCircuits counts the optical circuits establishing the
	// replacement's connectivity; Degraded reports whether any came up
	// narrower than requested.
	RepairCircuits int
	Degraded       bool
	// StepsTotal and StepsReplayed count schedule steps executed and
	// re-executed after rollback to the last completed step.
	StepsTotal, StepsReplayed int
	// CleanTime is the fault-free completion time of the same
	// schedule; TotalTime is the completion time with the fault,
	// detection, repair and replay included.
	CleanTime, TotalTime unit.Seconds
	// DetectTime and RepairTime split the MTTR into the policy's
	// detection latency and the optical repair (circuit establishment
	// + MZI settling); MTTR is their sum.
	DetectTime, RepairTime, MTTR unit.Seconds
	// RepairBound is the analytic floor of RepairTime: one MZI
	// settling interval, since circuit establishment is control-plane
	// work off the data path. The tests assert RepairTime is within
	// twice this bound.
	RepairBound unit.Seconds
	// StallOptical and StallElectrical are the blast radii: chips
	// stalled while recovering under optical splicing (the victim's
	// slice) versus the electrical rack-migration policy (every chip
	// in the rack).
	StallOptical, StallElectrical int
	// WastedBytes is the traffic of the interrupted step that had to
	// be replayed; GoodputFraction is useful over total bytes moved.
	WastedBytes     unit.Bytes
	GoodputFraction float64
}

// String renders the outcome.
func (o *ChaosOutcome) String() string {
	verdict := "CORRECT"
	if !o.Correct {
		verdict = "WRONG"
	}
	return fmt.Sprintf(
		"chip %d failed mid-collective; replacement %d spliced in over %d circuits (degraded=%v)\n"+
			"  result: %s after %d/%d steps replayed\n"+
			"  time: %v clean -> %v with fault (MTTR %v = %v detect + %v repair; bound %v)\n"+
			"  stall set: %d chips optical vs %d electrical; goodput %.1f%%\n",
		o.Victim, o.Replacement, o.RepairCircuits, o.Degraded,
		verdict, o.StepsReplayed, o.StepsTotal,
		o.CleanTime, o.TotalTime, o.MTTR, o.DetectTime, o.RepairTime, o.RepairBound,
		o.StallOptical, o.StallElectrical, o.GoodputFraction*100)
}

// RunAllReduceUnderFault plans an AllReduce over slice si, executes it
// against real buffers, and kills the victim chip partway through step
// failStep. Recovery tears down the victim's circuits, establishes
// repair circuits from a free chip to every peer the victim still had
// to exchange with, restores the victim's last step-boundary
// checkpoint onto the replacement, and resumes from the interrupted
// step. The outcome carries correctness, MTTR and blast-radius
// measurements.
func (f *Fabric) RunAllReduceUnderFault(a *torus.Allocation, si int, bufferBytes unit.Bytes, victim, failStep int, pol ChaosPolicy) (*ChaosOutcome, error) {
	if pol.Detection < 0 {
		return nil, fmt.Errorf("core: negative detection latency %v", pol.Detection)
	}
	if pol.Width < 1 {
		return nil, fmt.Errorf("core: repair width %d < 1", pol.Width)
	}
	plan, err := f.PlanAllReduce(a, si, bufferBytes)
	if err != nil {
		return nil, err
	}
	return f.RunPlannedAllReduceUnderFault(a, plan, victim, failStep, pol)
}

// RunPlannedAllReduceUnderFault is RunAllReduceUnderFault for a
// collective that is already planned. Planning is deterministic given
// the fabric seed and allocation, so a fault campaign plans once and
// hands each trial a Clone of the plan — the repair splice mutates the
// plan's schedule in place. The plan must have been produced by a
// fabric in the same pristine state as f (same seed, no prior faults).
func (f *Fabric) RunPlannedAllReduceUnderFault(a *torus.Allocation, plan *CollectivePlan, victim, failStep int, pol ChaosPolicy) (*ChaosOutcome, error) {
	if pol.Detection < 0 {
		return nil, fmt.Errorf("core: negative detection latency %v", pol.Detection)
	}
	if pol.Width < 1 {
		return nil, fmt.Errorf("core: repair width %d < 1", pol.Width)
	}
	sched := plan.Schedule
	chips := sched.Chips()
	if !containsInt(chips, victim) {
		return nil, fmt.Errorf("core: victim chip %d is not part of the collective", victim)
	}
	if failStep < 0 || failStep >= sched.NumSteps() {
		return nil, fmt.Errorf("core: fail step %d out of range [0, %d)", failStep, sched.NumSteps())
	}

	circuitBW := f.params.ChipBandwidth / unit.BitRate(plan.ActiveDims)
	// Deterministic per-chip inputs: any values work (the interpreter
	// checks against the exact reference reduction); a chip- and
	// index-dependent ramp catches swapped or stale buffers. The
	// index-dependent term is computed once — the per-chip fills then
	// add the chip base to the same template values, so every buffer
	// holds exactly the floats the inline division produced. Buffers
	// come from a pooled arena: every element is written below, so
	// reuse skips the zero-fill a fresh NewState would pay per trial.
	scr := chaosScratchPool.Get().(*chaosScratch)
	defer chaosScratchPool.Put(scr)
	n := sched.N
	if need := (len(chips) + 2) * n; cap(scr.arena) < need {
		scr.arena = make([]float64, need)
	}
	arena := scr.arena
	ramp := arena[:n:n]
	for i := range ramp {
		ramp[i] = float64(i) / float64(n)
	}
	if scr.state == nil {
		scr.state = make(collective.State, len(chips))
	}
	clear(scr.state)
	st := scr.state
	for ci, c := range chips {
		buf := arena[(1+ci)*n : (2+ci)*n : (2+ci)*n]
		base := float64(c + 1)
		for i := range buf {
			buf[i] = ramp[i] + base
		}
		st[c] = buf
	}
	scr.ref = collective.ReduceAcrossInto(scr.ref, st, chips, n)
	ref := scr.ref
	// The schedule is validated once here and re-validated after the
	// repair splices the replacement in; the per-step executions below
	// then skip re-validation (Interp.ExecuteStep's contract).
	if err := sched.Validate(); err != nil {
		return nil, err
	}

	out := &ChaosOutcome{
		Victim:      victim,
		Replacement: -1,
		StepsTotal:  sched.NumSteps(),
		CleanTime:   plan.OpticalTime,
		DetectTime:  pol.Detection,
		RepairBound: phy.ReconfigLatency,
	}

	var clock unit.Seconds
	// Healthy prefix: steps before the failure complete normally.
	for i := 0; i < failStep; i++ {
		if err := f.executeStep(st, sched, i); err != nil {
			return nil, err
		}
		clock += f.stepTime(sched, i, circuitBW)
	}

	// The victim dies failFraction of the way through failStep's data
	// phase. Barrier semantics discard the step's partial transfers:
	// every chip rolls back to the step boundary and the step replays.
	dataTime := f.stepDataTime(sched, failStep, circuitBW)
	clock += f.stepOverhead(sched, failStep) + unit.Seconds(failFraction*float64(dataTime))
	out.WastedBytes = unit.Bytes(failFraction * float64(stepBytes(sched, failStep)))
	tFault := clock

	// Detection: the slice stalls until the manager learns of the
	// failure and acts.
	clock += pol.Detection

	// Hardware: mark the chip dead and tear down its circuits.
	if _, err := f.alloc.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: victim}); err != nil {
		return nil, err
	}

	// The replacement must reconnect to every peer the victim still
	// owes traffic (the interrupted step replays, so it counts).
	peers := victimPeers(sched, victim, failStep)
	repl, circuits, degraded, err := f.spliceReplacement(a, chips, peers, pol.Width, clock)
	if err != nil {
		return nil, err
	}
	out.Replacement = repl
	out.RepairCircuits = len(circuits)
	out.Degraded = degraded
	repairedAt := clock
	for _, c := range circuits {
		if c.ReadyAt > repairedAt {
			repairedAt = c.ReadyAt
		}
	}
	out.RepairTime = repairedAt - clock
	out.MTTR = repairedAt - tFault
	clock = repairedAt

	// Logical splice: the replacement takes over the victim's role in
	// every remaining step and inherits its step-boundary checkpoint.
	remapVictim(sched, victim, repl, failStep)
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: schedule invalid after splice: %w", err)
	}
	buf := arena[(1+len(chips))*n : (2+len(chips))*n : (2+len(chips))*n]
	copy(buf, st[victim])
	st[repl] = buf
	delete(st, victim)
	for i := range chips {
		if chips[i] == victim {
			chips[i] = repl
		}
	}
	sort.Ints(chips)

	// Resume: replay the interrupted step, then the rest.
	for i := failStep; i < sched.NumSteps(); i++ {
		if err := f.executeStep(st, sched, i); err != nil {
			return nil, err
		}
		clock += f.stepTime(sched, i, circuitBW)
	}
	out.StepsReplayed = sched.NumSteps() - failStep
	out.TotalTime = clock
	out.Correct = collective.CheckAllReduce(st, chips, ref) == nil
	out.StallOptical = len(chips)
	out.StallElectrical = f.torus.Size()
	useful := float64(sched.TotalBytes())
	out.GoodputFraction = useful / (useful + float64(out.WastedBytes))
	return out, nil
}

// spliceReplacement picks a free, healthy chip and establishes repair
// circuits from it to every peer, trying candidates in ascending ID
// order and rolling back a candidate's circuits when any peer cannot
// be reached. The boolean reports whether any circuit was degraded to
// a narrower width.
func (f *Fabric) spliceReplacement(a *torus.Allocation, inCollective, peers []int, width int, now unit.Seconds) (int, []*route.Circuit, bool, error) {
	var candidates []int
	for _, c := range a.FreeChips() {
		if containsInt(inCollective, c) {
			continue
		}
		if c < f.rack.NumChips() && f.rack.TileOf(c).ChipHealthy() {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return -1, nil, false, fmt.Errorf("core: no healthy free chip to splice in")
	}
	var lastErr error
	for _, repl := range candidates {
		circuits := make([]*route.Circuit, 0, len(peers))
		degraded := false
		ok := true
		for _, peer := range peers {
			c, deg, err := f.alloc.EstablishDegraded(route.Request{A: repl, B: peer, Width: width}, now)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			circuits = append(circuits, c)
			degraded = degraded || deg
		}
		if ok {
			return repl, circuits, degraded, nil
		}
		for _, c := range circuits {
			f.alloc.Release(c)
		}
	}
	return -1, nil, false, fmt.Errorf("core: optical splice failed for every free chip: %w", lastErr)
}

// victimPeers returns the distinct chips the victim exchanges traffic
// with from step failStep onward, ascending.
func victimPeers(s *collective.Schedule, victim, failStep int) []int {
	set := map[int]bool{}
	for _, step := range s.Steps[failStep:] {
		for _, tr := range step.Transfers {
			if tr.From == victim {
				set[tr.To] = true
			}
			if tr.To == victim {
				set[tr.From] = true
			}
		}
	}
	peers := make([]int, 0, len(set))
	for p := range set {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}

// remapVictim rewrites the victim to the replacement in every step
// from failStep onward, in place.
func remapVictim(s *collective.Schedule, victim, repl, failStep int) {
	for si := failStep; si < len(s.Steps); si++ {
		for ti := range s.Steps[si].Transfers {
			tr := &s.Steps[si].Transfers[ti]
			if tr.From == victim {
				tr.From = repl
			}
			if tr.To == victim {
				tr.To = repl
			}
		}
	}
}

// executeStep runs one step of the schedule against the buffers,
// through the fabric's reusable interpreter. The caller validates the
// schedule (once up front, again after any splice).
func (f *Fabric) executeStep(st collective.State, s *collective.Schedule, i int) error {
	if err := f.interp.ExecuteStep(st, s, i); err != nil {
		return fmt.Errorf("core: step %d: %w", i, err)
	}
	return nil
}

// stepOverhead is the fixed cost paid before a step's data moves.
func (f *Fabric) stepOverhead(s *collective.Schedule, i int) unit.Seconds {
	t := f.params.Alpha
	if s.Steps[i].Reconfig {
		t += f.params.Reconfig
	}
	return t
}

// stepDataTime is the data phase of one step on dedicated circuits:
// the largest per-chip payload at circuit bandwidth (the Executor.Optical
// model).
func (f *Fabric) stepDataTime(s *collective.Schedule, i int, circuitBW unit.BitRate) unit.Seconds {
	if len(f.stepChipBytes) < f.torus.Size() {
		f.stepChipBytes = make([]unit.Bytes, f.torus.Size())
	}
	touched := f.stepChipTouched[:0]
	for _, tr := range s.Steps[i].Transfers {
		if f.stepChipBytes[tr.From] == 0 {
			touched = append(touched, tr.From)
		}
		f.stepChipBytes[tr.From] += tr.Bytes(s.ElemBytes)
	}
	// worst is a max over per-chip tallies — order-independent, so the
	// touched-list walk gives the same value the map version did.
	var worst unit.Seconds
	for _, c := range touched {
		if t := circuitBW.TimeFor(f.stepChipBytes[c]); t > worst {
			worst = t
		}
		f.stepChipBytes[c] = 0
	}
	f.stepChipTouched = touched[:0]
	return worst
}

// stepTime is a step's full cost: overhead plus data.
func (f *Fabric) stepTime(s *collective.Schedule, i int, circuitBW unit.BitRate) unit.Seconds {
	return f.stepOverhead(s, i) + f.stepDataTime(s, i, circuitBW)
}

// stepBytes sums a step's transfer payloads.
func stepBytes(s *collective.Schedule, i int) unit.Bytes {
	var total unit.Bytes
	for _, tr := range s.Steps[i].Transfers {
		total += tr.Bytes(s.ElemBytes)
	}
	return total
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
