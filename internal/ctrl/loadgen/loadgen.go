// Package loadgen is the controller's load harness: a deterministic
// discrete-event simulation of thousands of client agents driving one
// ctrl.Server through open-loop Poisson arrivals, capped-backoff
// retries, circuit hold/release cycles and mid-run chaos faults.
//
// Everything runs on the controller's virtual clock. Agents draw
// interarrival gaps, peer choices, hold times and retry jitter from
// per-agent split rng streams, so a campaign is a pure function of its
// Config — byte-identical across runs, across sequential/parallel
// trial execution, and across kill→resume from any event boundary.
// That is what lets a million-request campaign publish a golden CSV.
package loadgen

import (
	"fmt"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/rng"
	"lightpath/internal/sketch"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Config parameterizes one load campaign.
type Config struct {
	// Seed drives every stochastic stream in the campaign: the
	// controller's loss model, each agent's arrivals and jitter, the
	// chaos schedule and the quantile sketch.
	Seed uint64
	// Ctrl configures the controller under load. Its Seed field is
	// overridden with the campaign seed.
	Ctrl ctrl.Config
	// Agents is the number of concurrent client agents (default 256).
	Agents int
	// ArrivalsPerAgent is how many fresh establish requests each agent
	// issues over the campaign (default 1000).
	ArrivalsPerAgent int
	// MeanInterarrival is each agent's open-loop Poisson gap between
	// fresh arrivals — open loop, so a slow controller does not slow
	// the offered load down (default 750 us).
	MeanInterarrival unit.Seconds
	// MeanHold is the mean (exponential) time a granted circuit is
	// held before release (default 1 ms).
	MeanHold unit.Seconds
	// Width is the lane width each establish requests (default 4).
	Width int
	// Deadline is the per-request service budget attached to establish
	// requests (default 1 ms; negative disables deadlines).
	Deadline unit.Seconds
	// Backoff is the agents' retry schedule (default ctrl.DefaultBackoff).
	Backoff ctrl.Backoff
	// Rates enables mid-run chaos faults; the zero value injects none.
	Rates chaos.Rates
}

func (c Config) withDefaults() Config {
	if c.Agents <= 0 {
		c.Agents = 256
	}
	if c.ArrivalsPerAgent <= 0 {
		c.ArrivalsPerAgent = 1000
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 750 * unit.Microsecond
	}
	if c.MeanHold <= 0 {
		c.MeanHold = unit.Millisecond
	}
	if c.Width <= 0 {
		c.Width = 4
	}
	if c.Deadline < 0 {
		c.Deadline = 0
	} else if c.Deadline == 0 {
		c.Deadline = unit.Millisecond
	}
	if c.Backoff == (ctrl.Backoff{}) {
		c.Backoff = ctrl.DefaultBackoff()
	}
	return c
}

// Result is one campaign's outcome.
type Result struct {
	// Requests is the number of fresh establish requests issued;
	// Attempts counts every submit including retries and releases.
	Requests, Attempts int
	// Served, Degraded, Shed, DeadlineMiss, BreakerRejects, NoPath and
	// EndpointFailed mirror the controller's counters.
	Served, Degraded, Shed, DeadlineMiss, BreakerRejects, NoPath, EndpointFailed int
	// Retries counts backoff-scheduled resubmits; Lost counts establish
	// requests abandoned after MaxRetries; Leaked counts circuits whose
	// release was abandoned after MaxRetries (should stay zero).
	Retries, Lost, Leaked int
	// BreakerTrips totals breaker open transitions across regions.
	BreakerTrips int
	// Faults, Reroutes, RerouteDegraded and CircuitsLost describe the
	// chaos path: faults applied, broken circuits transparently moved
	// (RerouteDegraded of them at reduced width) and circuits lost.
	Faults, Reroutes, RerouteDegraded, CircuitsLost int
	// GoodputWS is the delivered goodput in width-seconds: granted
	// width integrated over each circuit's actual lifetime.
	GoodputWS float64
	// P50us and P99us are the setup-latency percentiles in
	// microseconds over served establishes, first arrival to grant,
	// retries included.
	P50us, P99us float64
	// RPS is the offered attempt rate in requests per simulated second.
	RPS float64
	// Horizon is the campaign's virtual end time; Events the event
	// count (the checkpoint boundary space).
	Horizon unit.Seconds
	Events  uint64
	// Violations is the invariant auditor's violation count (must be
	// zero; Run also returns an error when it is not).
	Violations int
	// CacheHits and CacheMisses are the allocator's route-plan cache
	// counters at campaign end.
	CacheHits, CacheMisses uint64
}

// event kinds, in tie-break order within an instant only by seq — the
// sequence counter makes the event order total.
type evKind int

const (
	evArrival evKind = iota // agent issues its next fresh request
	evRetry                 // backoff-scheduled resubmit of a session
	evRelease               // session releases its circuit
	evFault                 // chaos fault hits the fabric
)

// event is one heap entry. agent is used by evArrival; session and
// attempt by evRetry/evRelease; fault indexes the precomputed chaos
// schedule (recomputed on resume, so only the index travels in a
// checkpoint).
type event struct {
	at      unit.Seconds
	seq     int
	kind    evKind
	agent   int
	session int
	attempt int
	fault   int
}

// eventHeap orders events by time, ties broken by issue sequence. It
// is a typed min-heap whose sift-up/sift-down replicate
// container/heap's algorithms exactly — the checkpoint serializes the
// heap in its raw array layout, and the pop order feeds every golden
// CSV, so the layout must stay bit-identical to the boxed
// implementation this replaces (which cost two interface allocations
// per event).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[j].at < h[i].at {
		return false
	}
	return h[i].seq < h[j].seq
}

// push appends the event and sifts it up (container/heap's Push+up).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum event (container/heap's
// Pop: swap root to the end, sift the new root down over the
// shortened prefix, take the former root off the end).
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	ev := s[n]
	*h = s[:n]
	return ev
}

// phase is a session's position in its lifecycle.
type phase int

const (
	phaseEstablish phase = iota // submitted or awaiting retry of establish
	phaseOpen                   // circuit granted, release scheduled
	phaseRelease                // release submitted or awaiting retry
)

// session is one fresh request's lifecycle: establish (with retries),
// hold, release (with retries). Sessions whose circuit is killed by a
// fault are closed by the fault handler; their stale release events
// no-op.
type session struct {
	agent      int
	a, b       int
	width      int
	phase      phase
	firstAt    unit.Seconds // first establish submit (latency baseline)
	circuit    int
	grantWidth int
	openedAt   unit.Seconds // when the current grant started (goodput baseline)
}

// agentState is one client agent: its chip, its independent rng
// stream, and how many fresh arrivals it has issued.
type agentState struct {
	chip   int
	r      *rng.Rand
	issued int
}

// campaign is the full simulation state.
type campaign struct {
	cfg      Config
	srv      *ctrl.Server
	agents   []*agentState
	schedule []chaos.Fault

	events      eventHeap
	seq         int
	processed   uint64
	nextSession int
	sessions    map[int]*session
	byCircuit   map[int]int // live circuit id -> session id

	quant     *sketch.Quantile
	requests  int
	attempts  int
	retries   int
	lost      int
	leaked    int
	goodputWS float64
}

// build constructs the campaign skeleton: server, agents, chaos
// schedule and the initial arrival events. Deterministic from cfg.
func build(cfg Config) (*campaign, error) {
	cfg = cfg.withDefaults()
	srvCfg := cfg.Ctrl
	srvCfg.Seed = cfg.Seed
	srv, err := ctrl.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	c := &campaign{
		cfg:       cfg,
		srv:       srv,
		sessions:  make(map[int]*session),
		byCircuit: make(map[int]int),
		quant:     sketch.NewQuantile(0, root.Split("loadgen/sketch")),
	}
	chips := srv.Allocator().Rack().NumChips()
	if chips < 2 {
		return nil, fmt.Errorf("loadgen: need at least 2 chips, rack has %d", chips)
	}
	for i := 0; i < cfg.Agents; i++ {
		c.agents = append(c.agents, &agentState{
			chip: i % chips,
			r:    root.Split(fmt.Sprintf("loadgen/agent/%d", i)),
		})
	}

	// The fault schedule is precomputed over the nominal load horizon
	// (arrivals stop after ArrivalsPerAgent each); like the fleet soak,
	// only cursors travel in a checkpoint and the schedule itself is
	// recomputed from the config on resume.
	horizon := unit.Seconds(float64(cfg.ArrivalsPerAgent)) * cfg.MeanInterarrival
	rack := srv.Allocator().Rack()
	rackCfg := rack.Config()
	eng, err := chaos.NewEngine(cfg.Seed, chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            rackCfg.Rows,
		Cols:            rackCfg.Cols,
		Trunks:          rack.NumTrunks(),
	}, cfg.Rates)
	if err != nil {
		return nil, err
	}
	c.schedule = eng.Schedule(horizon)

	// Seed the heap: each agent's first arrival, then every fault.
	for i, ag := range c.agents {
		c.push(event{at: unit.Seconds(ag.r.Exp(float64(cfg.MeanInterarrival))), kind: evArrival, agent: i})
	}
	for fi, f := range c.schedule {
		c.push(event{at: f.Time, kind: evFault, fault: fi})
	}
	return c, nil
}

// push stamps the next sequence number and inserts the event.
func (c *campaign) push(ev event) {
	ev.seq = c.seq
	c.seq++
	c.events.push(ev)
}

// Run executes the campaign to completion. The returned error is
// non-nil when a fault cannot be applied or the invariant auditor
// found violations — robust serving on corrupted state must not look
// like robust serving on correct state.
func Run(cfg Config) (*Result, error) {
	return RunCheckpointed(cfg, snapshot.Options{})
}

// run drains the event heap; ck checkpoints at each event boundary.
func (c *campaign) run(ck *snapshot.Checkpointer) (*Result, error) {
	for len(c.events) > 0 {
		ev := c.events.pop()
		switch ev.kind {
		case evArrival:
			c.onArrival(ev)
		case evRetry:
			c.onRetry(ev)
		case evRelease:
			c.onRelease(ev)
		case evFault:
			if err := c.onFault(ev); err != nil {
				return nil, err
			}
		}
		c.processed++
		if err := ck.Boundary(c.processed, c); err != nil {
			return nil, err
		}
	}
	return c.result()
}

// onArrival issues agent's next fresh establish and, while the agent
// has arrivals left, schedules the following one.
func (c *campaign) onArrival(ev event) {
	ag := c.agents[ev.agent]
	chips := c.srv.Allocator().Rack().NumChips()
	b := (ag.chip + 1 + ag.r.Intn(chips-1)) % chips
	id := c.nextSession
	c.nextSession++
	s := &session{
		agent:   ev.agent,
		a:       ag.chip,
		b:       b,
		width:   c.cfg.Width,
		firstAt: ev.at,
		circuit: -1,
	}
	c.sessions[id] = s
	c.requests++
	c.submit(id, s, 0, ev.at)

	ag.issued++
	if ag.issued < c.cfg.ArrivalsPerAgent {
		gap := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanInterarrival)))
		c.push(event{at: ev.at + gap, kind: evArrival, agent: ev.agent})
	}
}

// onRetry resubmits a session's pending operation. The session may be
// gone (closed by a fault while the retry was queued) — stale retries
// no-op.
func (c *campaign) onRetry(ev event) {
	s, ok := c.sessions[ev.session]
	if !ok || s.phase == phaseOpen {
		return
	}
	c.submit(ev.session, s, ev.attempt, ev.at)
}

// onRelease submits a session's release. Stale events (circuit already
// lost to a fault) no-op.
func (c *campaign) onRelease(ev event) {
	s, ok := c.sessions[ev.session]
	if !ok || s.phase != phaseOpen {
		return
	}
	s.phase = phaseRelease
	c.submit(ev.session, s, 0, ev.at)
}

// onFault applies one scheduled fault and reconciles every session the
// blast radius touched: rerouted circuits keep their session (goodput
// credited at the old width, restarted at the new), lost circuits
// close theirs.
func (c *campaign) onFault(ev event) error {
	rep, err := c.srv.ApplyFault(c.schedule[ev.fault], ev.at)
	if err != nil {
		return err
	}
	for _, mv := range rep.Moves {
		sid, ok := c.byCircuit[mv.OldID]
		if !ok {
			continue
		}
		s := c.sessions[sid]
		c.goodputWS += float64(s.grantWidth) * float64(ev.at-s.openedAt)
		delete(c.byCircuit, mv.OldID)
		if mv.NewID < 0 {
			delete(c.sessions, sid)
			continue
		}
		s.circuit = mv.NewID
		s.grantWidth = mv.NewWidth
		s.openedAt = ev.at
		c.byCircuit[mv.NewID] = sid
	}
	return nil
}

// retryable reports whether a status is worth a backoff retry.
// Overload, deadline and breaker rejections are transient by
// construction; setup failures can clear as other circuits release or
// reroutes settle.
func retryable(st ctrl.Status) bool {
	switch st {
	case ctrl.StatusOverloaded, ctrl.StatusDeadline, ctrl.StatusBreakerOpen,
		ctrl.StatusNoPath, ctrl.StatusEndpointFailed:
		return true
	}
	return false
}

// submit runs one attempt of the session's pending operation through
// the controller and schedules the consequences.
func (c *campaign) submit(id int, s *session, attempt int, at unit.Seconds) {
	ag := c.agents[s.agent]
	var req ctrl.Request
	if s.phase == phaseRelease {
		req = ctrl.Request{Op: ctrl.OpRelease, Circuit: s.circuit}
	} else {
		req = ctrl.Request{Op: ctrl.OpEstablish, A: s.a, B: s.b, Width: s.width, Deadline: c.cfg.Deadline}
	}
	resp, done := c.srv.Submit(req, at)
	c.attempts++

	switch {
	case resp.Status == ctrl.StatusOK:
		if s.phase == phaseRelease {
			c.goodputWS += float64(s.grantWidth) * float64(done-s.openedAt)
			delete(c.byCircuit, s.circuit)
			delete(c.sessions, id)
			return
		}
		s.phase = phaseOpen
		s.circuit = resp.Circuit
		s.grantWidth = resp.Width
		s.openedAt = done
		c.byCircuit[resp.Circuit] = id
		c.quant.Add(float64(done-s.firstAt) / float64(unit.Microsecond))
		hold := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanHold)))
		c.push(event{at: done + hold, kind: evRelease, session: id})

	case resp.Status == ctrl.StatusUnknownCircuit && s.phase == phaseRelease:
		// The circuit vanished between scheduling and submit (fault
		// path); nothing left to release.
		delete(c.sessions, id)

	case retryable(resp.Status) && attempt < c.cfg.Backoff.MaxRetries:
		c.retries++
		delay := c.cfg.Backoff.Delay(ag.r, attempt)
		c.push(event{at: done + delay, kind: evRetry, session: id, attempt: attempt + 1})

	default:
		// Retries exhausted (or a non-retryable status): the request
		// is abandoned. An abandoned release leaks its circuit — the
		// counter exists to prove it stays at zero.
		if s.phase == phaseRelease {
			c.leaked++
			delete(c.byCircuit, s.circuit)
		} else {
			c.lost++
		}
		delete(c.sessions, id)
	}
}

// result assembles the campaign outcome and surfaces invariant
// violations as an error.
func (c *campaign) result() (*Result, error) {
	st := c.srv.Stats()
	horizon := c.srv.Clock()
	r := &Result{
		Requests:        c.requests,
		Attempts:        c.attempts,
		Served:          st.Served,
		Degraded:        st.Degraded,
		Shed:            st.Shed,
		DeadlineMiss:    st.DeadlineMiss,
		BreakerRejects:  st.BreakerRejects,
		NoPath:          st.NoPath,
		EndpointFailed:  st.EndpointFailed,
		Retries:         c.retries,
		Lost:            c.lost,
		Leaked:          c.leaked,
		BreakerTrips:    c.srv.BreakerTrips(),
		Faults:          st.FaultsApplied,
		Reroutes:        st.Reroutes,
		RerouteDegraded: st.RerouteDegraded,
		CircuitsLost:    st.CircuitsLost,
		GoodputWS:       c.goodputWS,
		Horizon:         horizon,
		Events:          c.processed,
		Violations:      c.srv.Auditor().Count(),
		CacheHits:       st.PlanCacheHits,
		CacheMisses:     st.PlanCacheMisses,
	}
	if c.quant.Count() > 0 {
		r.P50us = c.quant.Query(0.5)
		r.P99us = c.quant.Query(0.99)
	}
	if horizon > 0 {
		r.RPS = float64(c.attempts) / float64(horizon)
	}
	if err := c.srv.Auditor().Err(); err != nil {
		return r, err
	}
	return r, nil
}
