package netsim

import (
	"math"
	"testing"

	"lightpath/internal/collective"
	"lightpath/internal/cost"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

func rack() *torus.Torus { return torus.New(torus.Shape{4, 4, 4}) }

func slice1() *torus.Slice {
	return &torus.Slice{Name: "Slice-1", Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}}
}

func TestExecuteElectricalMatchesCostModel(t *testing.T) {
	var e Executor
	// The netsim execution of a congestion-free schedule must equal
	// the analytic alpha-beta cost (DESIGN.md invariant).
	tor := rack()
	s := slice1()
	n := 1 << 20
	sched, _, err := collective.SnakeRingReduceScatter("rs", tor, s, n, 4, collective.BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	linkBW := p.ChipBandwidth / unit.BitRate(p.PhysDims)
	got, err := e.Electrical(sched, tor, linkBW, nil, ExecOptions{Alpha: p.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Electrical(sched)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got-want.Total()))/float64(want.Total()) > 1e-6 {
		t.Fatalf("netsim %v != cost model %v", got, want.Total())
	}
}

func TestExecuteOpticalMatchesCostModel(t *testing.T) {
	var e Executor
	tor := rack()
	s := slice1()
	n := 1 << 20
	sched, _, err := collective.SnakeRingReduceScatter("rs", tor, s, n, 4, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	got, err := e.Optical(sched, p.ChipBandwidth, ExecOptions{Alpha: p.Alpha, Reconfig: p.Reconfig})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Optical(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got-want.Total()))/float64(want.Total()) > 1e-6 {
		t.Fatalf("netsim %v != cost model %v", got, want.Total())
	}
}

// TestFig5cEndToEnd is the dynamic form of Figure 5c: the same Slice-1
// collective completes ~3x faster on the photonic fabric for large
// buffers.
func TestFig5cEndToEnd(t *testing.T) {
	var e Executor
	tor := rack()
	s := slice1()
	n := 1 << 24 // large buffer: beta-dominated
	p := cost.DefaultParams()

	elecSched, _, err := collective.SnakeRingReduceScatter("e", tor, s, n, 4, collective.BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optSched, _, err := collective.SnakeRingReduceScatter("o", tor, s, n, 4, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	elec, err := e.Electrical(elecSched, tor, p.ChipBandwidth/3, nil, ExecOptions{Alpha: p.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.Optical(optSched, p.ChipBandwidth, ExecOptions{Alpha: p.Alpha, Reconfig: p.Reconfig})
	if err != nil {
		t.Fatal(err)
	}
	// Alpha and the one-time reconfiguration dilute the asymptotic 3x
	// slightly at this buffer size.
	speedup := float64(elec / opt)
	if speedup < 2.8 || speedup > 3.05 {
		t.Fatalf("optical speedup = %.2fx, want ~3x", speedup)
	}
}

func TestExecuteElectricalDetectsNonAdjacent(t *testing.T) {
	var e Executor
	tor := rack()
	sched := &collective.Schedule{
		N: 8, ElemBytes: 4,
		Steps: []collective.Step{
			{Transfers: []collective.Transfer{{From: 0, To: 2, Range: collective.Range{Lo: 0, Hi: 8}}}},
		},
	}
	if _, err := e.Electrical(sched, tor, unit.GBps(1), nil, ExecOptions{}); err == nil {
		t.Fatal("non-adjacent transfer accepted without a path function")
	}
}

func TestExecuteElectricalMultiHopPath(t *testing.T) {
	var e Executor
	// A 2-hop detour path shares its middle link with nothing; time =
	// bytes/linkBW (fluid model, no store-and-forward delay modeled).
	tor := rack()
	sched := &collective.Schedule{
		N: 1 << 20, ElemBytes: 1,
		Steps: []collective.Step{
			{Transfers: []collective.Transfer{{From: 0, To: 2, Range: collective.Range{Lo: 0, Hi: 1 << 20}}}},
		},
	}
	path := func(tr collective.Transfer) []torus.Link {
		return []torus.Link{{From: 0, To: 1}, {From: 1, To: 2}}
	}
	got, err := e.Electrical(sched, tor, unit.GBps(1), path, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := unit.GBps(1).TimeFor(1 << 20)
	if math.Abs(float64(got-want))/float64(want) > 1e-6 {
		t.Fatalf("2-hop time = %v, want %v", got, want)
	}
}

func TestCongestionDoublesStepTime(t *testing.T) {
	var e Executor
	// Two same-step transfers forced over one shared link take twice
	// as long — the quantitative content of Figures 6a/6b.
	tor := rack()
	n := 1 << 20
	sched := &collective.Schedule{
		N: n, ElemBytes: 1,
		Steps: []collective.Step{
			{Transfers: []collective.Transfer{
				{From: 0, To: 1, Range: collective.Range{Lo: 0, Hi: n / 2}},
				{From: 4, To: 5, Range: collective.Range{Lo: n / 2, Hi: n}},
			}},
		},
	}
	shared := torus.Link{From: 0, To: 1}
	path := func(tr collective.Transfer) []torus.Link { return []torus.Link{shared} }
	congested, err := e.Electrical(sched, tor, unit.GBps(1), path, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := e.Electrical(sched, tor, unit.GBps(1), nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(congested / clean); math.Abs(ratio-2) > 0.01 {
		t.Fatalf("congestion ratio = %v, want 2", ratio)
	}
}

func TestExecuteOpticalValidation(t *testing.T) {
	var e Executor
	sched := &collective.Schedule{N: 8, ElemBytes: 4}
	if _, err := e.Optical(sched, 0, ExecOptions{}); err == nil {
		t.Fatal("zero circuit bandwidth accepted")
	}
}

func TestReconfigOnlyChargedWhenMarked(t *testing.T) {
	var e Executor
	n := 1 << 10
	mk := func(reconfig bool) *collective.Schedule {
		return &collective.Schedule{
			N: n, ElemBytes: 1,
			Steps: []collective.Step{
				{Transfers: []collective.Transfer{{From: 0, To: 1, Range: collective.Range{Lo: 0, Hi: n}}}, Reconfig: reconfig},
			},
		}
	}
	opt := ExecOptions{Reconfig: 3.7 * unit.Microsecond}
	with, err := e.Optical(mk(true), unit.GBps(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	without, err := e.Optical(mk(false), unit.GBps(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff := with - without; math.Abs(float64(diff-3.7*unit.Microsecond)) > 1e-12 {
		t.Fatalf("reconfig surcharge = %v, want 3.7us", diff)
	}
}

func TestHopLatencyStretchesSteps(t *testing.T) {
	var e Executor
	tor := rack()
	sched := &collective.Schedule{
		N: 1 << 10, ElemBytes: 1,
		Steps: []collective.Step{
			{Transfers: []collective.Transfer{{From: 0, To: 2, Range: collective.Range{Lo: 0, Hi: 1 << 10}}}},
		},
	}
	path := func(tr collective.Transfer) []torus.Link { return tor.DORPath(tr.From, tr.To) }
	base, err := e.Electrical(sched, tor, unit.GBps(1), path, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withHops, err := e.Electrical(sched, tor, unit.GBps(1), path, ExecOptions{HopLatency: unit.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 2 is a 2-hop DOR path: +2us.
	if diff := withHops - base; math.Abs(float64(diff-2*unit.Microsecond)) > 1e-12 {
		t.Fatalf("hop surcharge = %v, want 2us", diff)
	}
}

// Property: for random realizable slices, the optical executor equals
// the analytic cost model on bucket schedules too (not just snakes).
func TestOpticalMatchesCostModelProperty(t *testing.T) {
	var e Executor
	tor := rack()
	p := cost.DefaultParams()
	shapes := []torus.Shape{
		{4, 4, 1}, {4, 2, 1}, {2, 2, 1}, {4, 4, 4}, {4, 4, 2},
	}
	for _, shape := range shapes {
		s := &torus.Slice{Name: shape.String(), Origin: torus.Coord{0, 0, 0}, Shape: shape}
		dims := []int{0, 1, 2}
		n := 1 << 16
		sched, err := collective.BucketAllReduce("prop", tor, s, dims, n, 4, collective.BucketOptions{MarkReconfig: true})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		activeDims := 0
		for _, e := range shape {
			if e >= 2 {
				activeDims++
			}
		}
		got, err := e.Optical(sched, p.ChipBandwidth/unit.BitRate(activeDims), ExecOptions{Alpha: p.Alpha, Reconfig: p.Reconfig})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Optical(sched, activeDims)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got-want.Total()))/float64(want.Total()) > 1e-6 {
			t.Fatalf("%v: netsim %v != cost %v", shape, got, want.Total())
		}
	}
}
