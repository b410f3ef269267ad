package main

import (
	"errors"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/netsim"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The repo's error taxonomy promises that every sentinel survives the
// wrapping between the layer that raises it and the command layer:
// errors.Is must identify the failure class here, at the top of the
// stack, without string matching. Each case below provokes one
// sentinel through public API only — the same call paths the
// subcommands use — and checks both the sentinel and that the message
// still carries the human-readable context added along the way.
func TestErrorTaxonomyFromTheTop(t *testing.T) {
	newAlloc := func(t *testing.T) *route.Allocator {
		t.Helper()
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return route.NewAllocator(rack, nil)
	}
	stallPolicy := netsim.RetryPolicy{Detection: 1, Backoff: 0.5, BackoffFactor: 2, MaxRetries: 4}

	cases := []struct {
		name     string
		sentinel error
		context  string // substring the wrapped message must retain
		trigger  func(t *testing.T) error
	}{
		{
			name:     "dead endpoint",
			sentinel: route.ErrEndpointFailed,
			context:  "chip",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				a.Rack().TileOf(3).FailChip()
				_, err := a.Establish(route.Request{A: 3, B: 9, Width: 1}, 0)
				return err
			},
		},
		{
			name:     "no path across cut fibers",
			sentinel: route.ErrNoPath,
			context:  "chips",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				rack := a.Rack()
				for trunk := 0; trunk < rack.NumTrunks(); trunk++ {
					for row := 0; row < rack.Config().Rows; row++ {
						a.FailFiberRow(trunk, row)
					}
				}
				_, err := a.Establish(route.Request{A: 0, B: 40, Width: 1}, 0)
				return err
			},
		},
		{
			name:     "flow retries exhausted",
			sentinel: netsim.ErrRetriesExhausted,
			context:  "flow",
			trigger: func(t *testing.T) error {
				flows := []netsim.Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
				caps := map[string]unit.BitRate{"l": unit.GBps(1)}
				events := []netsim.Event[string]{
					{At: 0.1, Fail: []string{"l"}},
					{At: 1 << 20, Restore: []string{"l"}},
				}
				var sim netsim.Sim[string]
				_, err := sim.RunEvents(flows, caps, events, stallPolicy)
				return err
			},
		},
		{
			name:     "flows stalled forever",
			sentinel: netsim.ErrStalledForever,
			context:  "t=",
			trigger: func(t *testing.T) error {
				flows := []netsim.Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
				caps := map[string]unit.BitRate{"l": unit.GBps(1)}
				events := []netsim.Event[string]{{At: 0.1, Fail: []string{"l"}}}
				pol := stallPolicy
				pol.MaxRetries = 1 << 30
				var sim netsim.Sim[string]
				_, err := sim.RunEvents(flows, caps, events, pol)
				return err
			},
		},
		{
			name:     "controller overloaded",
			sentinel: ctrl.ErrOverloaded,
			context:  "queue",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{Seed: 1, QueueCap: 2, Audit: invariant.Paranoid})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(invariant.ResetGlobal)
				// A same-instant burst: the queue holds 2, the rest shed.
				var last ctrl.Response
				for i := 0; i < 8; i++ {
					last, _ = s.Submit(ctrl.Request{Op: ctrl.OpEstablish, A: i % 4, B: 20 + i, Width: 1}, 0)
				}
				return last.Err()
			},
		},
		{
			name:     "deadline tighter than service",
			sentinel: ctrl.ErrDeadlineExceeded,
			context:  "exceeds deadline",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{Seed: 1, Audit: invariant.Paranoid})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(invariant.ResetGlobal)
				// Default establish service is 2 us; a 1 us budget can
				// never be met and is refused before consuming capacity.
				resp, _ := s.Submit(ctrl.Request{
					Op: ctrl.OpEstablish, A: 0, B: 9, Width: 1, Deadline: unit.Microsecond,
				}, 0)
				return resp.Err()
			},
		},
		{
			name:     "breaker fences a dead chip",
			sentinel: ctrl.ErrBreakerOpen,
			context:  "cooling down",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{
					Seed:    1,
					Breaker: ctrl.BreakerConfig{FailThreshold: 3, Cooldown: unit.Millisecond, HalfOpenProbes: 1},
					Audit:   invariant.Paranoid,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(invariant.ResetGlobal)
				if _, err := s.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 5}, 0); err != nil {
					t.Fatal(err)
				}
				// Spaced arrivals so the queue drains: three clean
				// endpoint failures trip the region, the fourth is
				// rejected by the open breaker.
				var last ctrl.Response
				for i := 0; i < 4; i++ {
					at := unit.Seconds(i+1) * 100 * unit.Microsecond
					last, _ = s.Submit(ctrl.Request{Op: ctrl.OpEstablish, A: 5, B: 30, Width: 1}, at)
				}
				return last.Err()
			},
		},
		{
			name:     "invariant violated",
			sentinel: invariant.ErrViolated,
			context:  "violation",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				aud := invariant.Attach(a, invariant.Paranoid)
				t.Cleanup(invariant.ResetGlobal)
				if _, err := a.Establish(route.Request{A: 0, B: 5, Width: 2}, 0); err != nil {
					t.Fatal(err)
				}
				// Hardware mutated behind the allocator: the next audit
				// must turn it into an error the top level can classify.
				if err := a.Rack().TileOf(20).Reserve(1); err != nil {
					t.Fatal(err)
				}
				aud.Audit("sabotage")
				return aud.Err()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trigger(t)
			if err == nil {
				t.Fatal("trigger produced no error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, sentinel) = false; wrapping broke the taxonomy", err)
			}
			if !strings.Contains(err.Error(), tc.context) {
				t.Fatalf("message %q lost its context (%q)", err, tc.context)
			}
		})
	}
}
