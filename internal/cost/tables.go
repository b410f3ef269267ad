package cost

import (
	"fmt"
	"strings"

	"lightpath/internal/collective"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// This file regenerates the paper's Table 1 and Table 2: REDUCESCATTER
// alpha-beta costs of Slice-1 (a single 8-chip ring on a 4x2x1 slice)
// and Slice-3 (a two-stage bucket algorithm on a 4x4x1 slice), on
// electrical vs optical interconnects.

// Table1 is the priced comparison of the paper's Table 1.
type Table1 struct {
	BufferBytes unit.Bytes
	// ElecAlphaSteps and OptAlphaSteps are the "7 x alpha" column: the
	// number of ring steps (identical for both interconnects).
	ElecAlphaSteps, OptAlphaSteps int
	// OptReconfigs is the "+ r" of the optical alpha column.
	OptReconfigs int
	// ElecBeta and OptBeta are the beta columns.
	ElecBeta, OptBeta unit.Seconds
	// BetaRatio is ElecBeta/OptBeta; the paper's headline is 3x
	// ("Electrical interconnects induce 3X the beta cost").
	BetaRatio float64
}

// String renders the result in the shape of the paper's table.
func (t Table1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: REDUCESCATTER costs of Slice-1 (N = %v)\n", t.BufferBytes)
	fmt.Fprintf(&b, "  %-22s %-24s %-18s %-18s\n", "Elec. alpha cost", "Optics alpha cost", "Elec. beta cost", "Optics beta cost")
	fmt.Fprintf(&b, "  %-22s %-24s %-18v %-18v\n",
		fmt.Sprintf("%d x alpha", t.ElecAlphaSteps),
		fmt.Sprintf("%d x alpha + %d x r", t.OptAlphaSteps, t.OptReconfigs),
		t.ElecBeta, t.OptBeta)
	fmt.Fprintf(&b, "  beta ratio (elec/optics) = %.2fx (paper: 3x)\n", t.BetaRatio)
	return b.String()
}

// MakeTable1 prices the Slice-1 ReduceScatter of an n-element buffer.
// The slice must support a single snake ring (the paper's Slice-1 is
// 4x2x1).
func MakeTable1(p Params, t *torus.Torus, s *torus.Slice, n int, elemBytes unit.Bytes) (Table1, error) {
	elec, _, err := collective.SnakeRingReduceScatter("table1/elec", t, s, n, elemBytes, collective.BucketOptions{})
	if err != nil {
		return Table1{}, err
	}
	opt, _, err := collective.SnakeRingReduceScatter("table1/opt", t, s, n, elemBytes, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		return Table1{}, err
	}
	ec, err := p.Electrical(elec)
	if err != nil {
		return Table1{}, err
	}
	// A single ring: one active ring dimension regardless of which
	// physical dimensions its hops traverse.
	oc, err := p.Optical(opt, 1)
	if err != nil {
		return Table1{}, err
	}
	out := Table1{
		BufferBytes:    unit.Bytes(n) * elemBytes,
		ElecAlphaSteps: ec.Steps,
		OptAlphaSteps:  oc.Steps,
		OptReconfigs:   oc.Reconfigs,
		ElecBeta:       ec.Beta,
		OptBeta:        oc.Beta,
	}
	if oc.Beta > 0 {
		out.BetaRatio = float64(ec.Beta / oc.Beta)
	}
	return out, nil
}

// Table2Stage is one row of the paper's Table 2: one dimension phase
// of the bucket algorithm.
type Table2Stage struct {
	Dim         int
	BufferBytes unit.Bytes // buffer handled in this stage (N, then N/4, ...)
	AlphaSteps  int
	Reconfigs   int
	ElecBeta    unit.Seconds
	OptBeta     unit.Seconds
}

// BetaRatio returns ElecBeta/OptBeta for the stage.
//
// Table 2's rendering uses it; it is public because the paper-
// reproduction tests assert it.
func (s Table2Stage) BetaRatio() float64 {
	if s.OptBeta == 0 {
		return 0
	}
	return float64(s.ElecBeta / s.OptBeta)
}

// Table2 is the priced comparison of the paper's Table 2.
type Table2 struct {
	Stages []Table2Stage
}

// TotalElecBeta sums the stages' electrical beta costs.
//
// Table 2's rendering uses it; it is public because the paper-
// reproduction tests assert it.
func (t Table2) TotalElecBeta() unit.Seconds {
	var total unit.Seconds
	for _, s := range t.Stages {
		total += s.ElecBeta
	}
	return total
}

// TotalOptBeta sums the stages' optical beta costs.
//
// Table 2's rendering uses it; it is public because the paper-
// reproduction tests assert it.
func (t Table2) TotalOptBeta() unit.Seconds {
	var total unit.Seconds
	for _, s := range t.Stages {
		total += s.OptBeta
	}
	return total
}

// String renders the result in the shape of the paper's table.
func (t Table2) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: REDUCESCATTER alpha-beta costs of Slice-3 (D = %d stages)\n", len(t.Stages))
	fmt.Fprintf(&b, "  %-6s %-10s %-22s %-24s %-16s %-16s %-8s\n",
		"stage", "buffer", "Elec. alpha", "Optics alpha", "Elec. beta", "Optics beta", "ratio")
	for i, s := range t.Stages {
		fmt.Fprintf(&b, "  %-6d %-10v %-22s %-24s %-16v %-16v %.2fx\n",
			i+1, s.BufferBytes,
			fmt.Sprintf("%d x alpha", s.AlphaSteps),
			fmt.Sprintf("%d x alpha + %d x r", s.AlphaSteps, s.Reconfigs),
			s.ElecBeta, s.OptBeta, s.BetaRatio())
	}
	ratio := 0.0
	if t.TotalOptBeta() > 0 {
		ratio = float64(t.TotalElecBeta() / t.TotalOptBeta())
	}
	fmt.Fprintf(&b, "  total beta ratio (elec/optics) = %.2fx (paper: 1.5x)\n", ratio)
	return b.String()
}

// MakeTable2 prices the two-stage bucket ReduceScatter of Slice-3
// (4x4x1, dimension order X then Y) of an n-element buffer.
func MakeTable2(p Params, t *torus.Torus, s *torus.Slice, dimOrder []int, n int, elemBytes unit.Bytes) (Table2, error) {
	elec, _, err := collective.BucketReduceScatter("table2/elec", t, s, dimOrder, n, elemBytes, collective.BucketOptions{})
	if err != nil {
		return Table2{}, err
	}
	opt, _, err := collective.BucketReduceScatter("table2/opt", t, s, dimOrder, n, elemBytes, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		return Table2{}, err
	}
	activeDims := len(collective.ActiveDims(s))
	perDim := p.ChipBandwidth / unit.BitRate(p.PhysDims)
	perRing := p.ChipBandwidth / unit.BitRate(activeDims)

	// Segment the schedule into dimension phases and price each.
	var out Table2
	phaseOf := func(step collective.Step) int {
		if len(step.Transfers) == 0 {
			return -1
		}
		return step.Transfers[0].Dim
	}
	var cur *Table2Stage
	groups := make(map[flowKey]unit.Bytes)
	for si, step := range elec.Steps {
		d := phaseOf(step)
		if cur == nil || cur.Dim != d {
			out.Stages = append(out.Stages, Table2Stage{Dim: d})
			cur = &out.Stages[len(out.Stages)-1]
			// Buffer handled this stage: the range size of the first
			// transfer times the ring size (the ring's parent range).
			ringSize := s.Shape[d]
			cur.BufferBytes = unit.Bytes(step.Transfers[0].Range.Len()*ringSize) * elemBytes
		}
		cur.AlphaSteps++
		cur.ElecBeta += stepBeta(groups, step, elec.ElemBytes, perDim)
		cur.OptBeta += stepBeta(groups, opt.Steps[si], opt.ElemBytes, perRing)
		if opt.Steps[si].Reconfig {
			cur.Reconfigs++
		}
	}
	return out, nil
}
