package netsim

import (
	"errors"
	"testing"

	"lightpath/internal/unit"
)

func eventPolicy() RetryPolicy {
	return RetryPolicy{
		Detection:     1, // 1 s, comfortable against 1 GB/s flows
		Backoff:       0.5,
		BackoffFactor: 2,
		MaxRetries:    4,
	}
}

func TestRunEventsNoEventsMatchesRun(t *testing.T) {
	// Two solvers: a Sim's results alias its storage until its next call.
	var sim, evSim Sim[string]
	flows := []Flow[string]{
		{Bytes: unit.GB, Via: []string{"a"}},
		{Bytes: unit.GB / 2, Via: []string{"a", "b"}},
	}
	caps := map[string]unit.BitRate{"a": unit.GBps(1), "b": unit.GBps(1)}
	plain, err := sim.Run(flows, caps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evSim.RunEvents(flows, caps, nil, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if !approx(ev.FlowEnd[i], plain.FlowEnd[i], 1e-6) {
			t.Fatalf("flow %d: %v with events, %v without", i, ev.FlowEnd[i], plain.FlowEnd[i])
		}
		if ev.Retries[i] != 0 || ev.Stalled[i] != 0 {
			t.Fatalf("flow %d retried/stalled with no events", i)
		}
	}
	if ev.WastedBytes != 0 || ev.GoodputFraction() != 1 {
		t.Fatalf("wasted %v bytes with no events", ev.WastedBytes)
	}
}

func TestRunEventsTransparentHiccup(t *testing.T) {
	var sim Sim[string]
	// Failure at 0.2s, restored at 0.5s — inside the 1s detection
	// window. The flow stalls 0.3s but never retries: 1s of work +
	// 0.3s stall = 1.3s.
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.2, Fail: []string{"l"}},
		{At: 0.5, Restore: []string{"l"}},
	}
	res, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries[0] != 0 {
		t.Fatalf("hiccup charged %d retries", res.Retries[0])
	}
	if !approx(res.Stalled[0], 0.3, 1e-6) {
		t.Fatalf("stalled %v, want 0.3s", res.Stalled[0])
	}
	if !approx(res.FlowEnd[0], 1.3, 1e-6) {
		t.Fatalf("finished at %v, want 1.3s", res.FlowEnd[0])
	}
	if res.WastedBytes != 0 {
		t.Fatalf("transparent resume wasted %v", res.WastedBytes)
	}
}

func TestRunEventsRestoreAtDetectionDeadlineIsTransparent(t *testing.T) {
	var sim Sim[string]
	// The link dies at 0.2s and is restored at exactly the detection
	// deadline, 1.2s. Restores apply before phase transitions at the
	// same instant, so the sender never declares the transfer dead:
	// the flow resumes transparently — 1s of work plus a 1s stall, no
	// retry, no retransmitted bytes.
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.2, Fail: []string{"l"}},
		{At: 1.2, Restore: []string{"l"}},
	}
	res, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries[0] != 0 {
		t.Fatalf("retries = %d, want a transparent resume", res.Retries[0])
	}
	if res.WastedBytes != 0 {
		t.Fatalf("wasted %v bytes on a transparent resume", res.WastedBytes)
	}
	if !approx(res.FlowEnd[0], 2.0, 1e-6) {
		t.Fatalf("finished at %v, want 2.0s (1s work + 1s stall)", res.FlowEnd[0])
	}
	if !approx(res.Stalled[0], 1.0, 1e-6) {
		t.Fatalf("stalled %v, want exactly the 1s outage", res.Stalled[0])
	}
}

func TestRunEventsDetectionRetryAndWaste(t *testing.T) {
	var sim Sim[string]
	// Failure at 0.5s (half delivered), restored at 2s. Detection
	// expires at 1.5s: 0.5 GB wasted, one retry. Backoff 0.5s ends at
	// 2.0s with the link healthy; the full GB retransmits: done at 3.0s.
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.5, Fail: []string{"l"}},
		{At: 2, Restore: []string{"l"}},
	}
	res, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries[0] != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries[0])
	}
	if res.WastedBytes != unit.GB/2 {
		t.Fatalf("wasted = %v, want half a GB", res.WastedBytes)
	}
	if !approx(res.FlowEnd[0], 3.0, 1e-6) {
		t.Fatalf("finished at %v, want 3.0s", res.FlowEnd[0])
	}
	// Goodput: 1 GB useful over 1.5 GB moved.
	if g := res.GoodputFraction(); g < 0.66 || g > 0.67 {
		t.Fatalf("goodput = %g, want ~2/3", g)
	}
	// Unaffected flows on other resources keep running during the stall.
}

func TestRunEventsUnaffectedFlowKeepsRunning(t *testing.T) {
	var sim Sim[string]
	flows := []Flow[string]{
		{Bytes: unit.GB, Via: []string{"dead"}},
		{Bytes: unit.GB, Via: []string{"alive"}},
	}
	caps := map[string]unit.BitRate{"dead": unit.GBps(1), "alive": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.1, Fail: []string{"dead"}},
		{At: 0.2, Restore: []string{"dead"}},
	}
	res, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.FlowEnd[1], 1.0, 1e-6) {
		t.Fatalf("healthy flow finished at %v, want 1.0s", res.FlowEnd[1])
	}
	if res.Stalled[1] != 0 {
		t.Fatal("healthy flow accounted stall time")
	}
}

func TestRunEventsExponentialBackoffOnRepeatedFailure(t *testing.T) {
	var sim Sim[string]
	// The link dies at 0.1s and stays dead past several detection
	// windows; each detect->backoff->stall cycle doubles the backoff
	// until the restore at 6s lets the retry through.
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.1, Fail: []string{"l"}},
		{At: 6, Restore: []string{"l"}},
	}
	res, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries[0] < 2 {
		t.Fatalf("retries = %d, want >= 2 over a 5.9s outage", res.Retries[0])
	}
	if res.FlowEnd[0] <= 6 {
		t.Fatalf("finished at %v, before the restore", res.FlowEnd[0])
	}
}

func TestRunEventsRetriesExhausted(t *testing.T) {
	var sim Sim[string]
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.1, Fail: []string{"l"}},
		{At: 1 << 20, Restore: []string{"l"}},
	}
	_, err := sim.RunEvents(flows, caps, events, eventPolicy())
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

func TestRunEventsStalledForever(t *testing.T) {
	var sim Sim[string]
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	events := []Event[string]{{At: 0.1, Fail: []string{"l"}}}
	pol := eventPolicy()
	pol.MaxRetries = 1 << 30 // never exhaust; the deadlock must be caught
	_, err := sim.RunEvents(flows, caps, events, pol)
	if !errors.Is(err, ErrStalledForever) {
		t.Fatalf("err = %v, want ErrStalledForever", err)
	}
}

func TestRunEventsRejectsDegenerateInputs(t *testing.T) {
	var sim Sim[string]
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	good := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	if _, err := sim.RunEvents(good, caps, []Event[string]{{At: 2}, {At: 1}}, eventPolicy()); err == nil {
		t.Fatal("unsorted events accepted")
	}
	bad := eventPolicy()
	bad.BackoffFactor = 0.5
	if _, err := sim.RunEvents(good, caps, nil, bad); err == nil {
		t.Fatal("shrinking backoff accepted")
	}
	neg := eventPolicy()
	neg.Detection = -1
	if _, err := sim.RunEvents(good, caps, nil, neg); err == nil {
		t.Fatal("negative detection accepted")
	}
	if _, err := sim.RunEvents([]Flow[string]{{Bytes: unit.GB}}, caps, nil, eventPolicy()); !errors.Is(err, ErrStarvedFlow) {
		t.Fatal("flow with no resources accepted")
	}
	if _, err := sim.RunEvents([]Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}},
		map[string]unit.BitRate{"l": 0}, nil, eventPolicy()); !errors.Is(err, ErrStarvedFlow) {
		t.Fatal("zero-capacity resource accepted")
	}
	if _, err := sim.RunEvents([]Flow[string]{{Bytes: -1, Via: []string{"l"}}}, caps, nil, eventPolicy()); err == nil {
		t.Fatal("negative flow size accepted")
	}
	if _, err := sim.RunEvents([]Flow[string]{{Bytes: unit.GB, Via: []string{"ghost"}}}, caps, nil, eventPolicy()); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestRunEventsZeroByteFlowsComplete(t *testing.T) {
	var sim Sim[string]
	res, err := sim.RunEvents([]Flow[string]{{Bytes: 0}}, nil, nil, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatalf("makespan %v for empty flow set", res.Makespan)
	}
}

func TestRunEventsDeterministic(t *testing.T) {
	// first stays on its own solver: a Sim's results alias its storage
	// until its next call, and the repeats reuse one solver.
	var firstSim, sim Sim[string]
	flows := []Flow[string]{
		{Bytes: unit.GB, Via: []string{"a", "shared"}},
		{Bytes: unit.GB, Via: []string{"b", "shared"}},
		{Bytes: unit.GB / 3, Via: []string{"shared"}},
	}
	caps := map[string]unit.BitRate{"a": unit.GBps(2), "b": unit.GBps(2), "shared": unit.GBps(1)}
	events := []Event[string]{
		{At: 0.25, Fail: []string{"a"}},
		{At: 0.5, Restore: []string{"a"}},
	}
	first, err := firstSim.RunEvents(flows, caps, events, eventPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		again, err := sim.RunEvents(flows, caps, events, eventPolicy())
		if err != nil {
			t.Fatal(err)
		}
		for i := range flows {
			if again.FlowEnd[i] != first.FlowEnd[i] || again.Stalled[i] != first.Stalled[i] {
				t.Fatalf("trial %d diverged on flow %d", trial, i)
			}
		}
	}
}
