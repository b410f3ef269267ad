package netsim

import (
	"errors"
	"fmt"

	"lightpath/internal/unit"
)

// This file adds the failure lifecycle to the fluid simulator:
// resources can die and come back at scheduled simulated times, flows
// crossing a dead resource stall, the sender detects the stall after a
// configurable detection latency, and the transfer is retried with
// exponential backoff once the fabric recovers. It is the dynamic
// counterpart of Run, which assumes every resource survives the whole
// flow set.

// Event changes resource health at a simulated time. Events passed to
// RunEvents must be sorted by ascending At.
type Event[R comparable] struct {
	// At is when the change takes effect.
	At unit.Seconds
	// Fail lists resources whose capacity drops to zero at At.
	Fail []R
	// Restore lists resources that return to their configured
	// capacity at At (a completed repair).
	Restore []R
}

// RetryPolicy configures failure detection and transfer retry.
type RetryPolicy struct {
	// Detection is how long a flow must be stalled before its sender
	// declares the transfer dead (heartbeat timeout). A failure that
	// heals within the detection window is a transparent hiccup: the
	// transfer resumes without retransmission.
	Detection unit.Seconds
	// Backoff is the delay before the first retry after detection.
	Backoff unit.Seconds
	// BackoffFactor multiplies the delay on each successive retry.
	BackoffFactor float64
	// MaxRetries bounds the retries per flow; exceeding it aborts the
	// whole run with ErrRetriesExhausted.
	MaxRetries int
}

// DefaultRetryPolicy returns the parameters used by the chaos
// experiments: 10 us detection (a handful of RTTs at rack scale),
// first retry after 5 us, doubling, at most 8 retries.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Detection:     10 * unit.Microsecond,
		Backoff:       5 * unit.Microsecond,
		BackoffFactor: 2,
		MaxRetries:    8,
	}
}

// validate checks the policy's parameters.
func (p RetryPolicy) validate() error {
	if p.Detection < 0 || p.Backoff < 0 {
		return fmt.Errorf("netsim: negative detection or backoff in retry policy")
	}
	if p.BackoffFactor < 1 {
		return fmt.Errorf("netsim: backoff factor %g < 1", p.BackoffFactor)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("netsim: negative max retries")
	}
	return nil
}

// ErrRetriesExhausted reports a flow that exceeded its retry budget.
var ErrRetriesExhausted = errors.New("netsim: flow exhausted its retries")

// ErrStalledForever reports flows stalled on dead resources with no
// remaining restore event — the run can never finish.
var ErrStalledForever = errors.New("netsim: flows stalled with no recovery scheduled")

// EventResult reports a simulated flow set that survived failures.
type EventResult struct {
	Result
	// Retries[i] counts flow i's abandoned attempts.
	Retries []int
	// Stalled[i] is flow i's total time spent stalled or backing off.
	Stalled []unit.Seconds
	// WastedBytes is the payload delivered by attempts that were later
	// abandoned and retransmitted from scratch.
	WastedBytes unit.Bytes
}

// GoodputFraction returns useful bytes over total bytes moved — the
// goodput-under-failure metric (1.0 when nothing was retried).
func (r EventResult) GoodputFraction() float64 {
	var useful unit.Bytes
	for _, d := range r.Delivered {
		useful += d
	}
	if useful+r.WastedBytes <= 0 {
		return 1
	}
	return float64(useful) / float64(useful+r.WastedBytes)
}

// flowPhase is a flow's position in the failure lifecycle.
type flowPhase int

const (
	phaseDone flowPhase = iota
	phaseRunning
	phaseStalled // crossing a dead resource, failure not yet detected
	phaseBackoff // detected; waiting out the retry delay
)
