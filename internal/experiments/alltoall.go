package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/core"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// AllToAllPoint is one buffer size of the all-to-all study.
type AllToAllPoint struct {
	Buffer                      unit.Bytes // per-chip buffer
	ElectricalTime, OpticalTime unit.Seconds
	Speedup                     float64
}

// AllToAllResult is the §5 hard case quantified: AllToAll over a
// 16-chip slice, electrical dimension-ordered routing (multi-hop,
// congesting) versus per-step reprogrammed optical circuits (p-1
// reconfigurations of 3.7 us each).
type AllToAllResult struct {
	Chips, Steps int
	// Reconfigs is the optical reconfiguration count (= steps).
	Reconfigs int
	Points    []AllToAllPoint
	// CrossoverBuffer is the smallest swept buffer where optics wins.
	CrossoverBuffer unit.Bytes
}

// String renders the series.
func (r AllToAllResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AllToAll over %d chips (§5's hard case): %d steps, %d optical reconfigurations\n",
		r.Chips, r.Steps, r.Reconfigs)
	fmt.Fprintf(&b, "  %-12s %-14s %-14s %-8s\n", "buffer/chip", "electrical", "optical", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-12v %-14v %-14v %.2fx\n", p.Buffer, p.ElectricalTime, p.OpticalTime, p.Speedup)
	}
	if r.CrossoverBuffer > 0 {
		fmt.Fprintf(&b, "  optics wins from %v upward despite reprogramming every step\n", r.CrossoverBuffer)
	} else {
		fmt.Fprintf(&b, "  optics never wins in the swept range\n")
	}
	return b.String()
}

// AllToAll runs the study over the 16 chips of a 4x4 plane of a TPU
// rack for the given per-chip buffer sizes, planning each size through
// core.Fabric.PlanAllToAll.
func AllToAll(buffers []unit.Bytes) (AllToAllResult, error) {
	f, err := core.New(core.Options{})
	if err != nil {
		return AllToAllResult{}, err
	}
	plane := &torus.Slice{Name: "plane", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 1}}
	a, err := torus.NewAllocation(f.Torus(), []*torus.Slice{plane})
	if err != nil {
		return AllToAllResult{}, err
	}
	res := AllToAllResult{Chips: plane.Size()}
	for _, buf := range buffers {
		plan, err := f.PlanAllToAll(a, 0, buf)
		if err != nil {
			return AllToAllResult{}, err
		}
		res.Steps = plan.Schedule.NumSteps()
		res.Reconfigs = plan.Schedule.Reconfigs()
		elec, opt := plan.ElectricalTime, plan.OpticalTime
		point := AllToAllPoint{Buffer: buf, ElectricalTime: elec, OpticalTime: opt}
		if opt > 0 {
			point.Speedup = float64(elec / opt)
		}
		res.Points = append(res.Points, point)
		if res.CrossoverBuffer == 0 && opt < elec {
			res.CrossoverBuffer = buf
		}
	}
	return res, nil
}

// DefaultAllToAllBuffers is the CLI's sweep: 16 KB to 64 MB per chip.
func DefaultAllToAllBuffers() []unit.Bytes {
	var out []unit.Bytes
	for b := 16 * unit.KiB; b <= 64*unit.MiB; b *= 8 {
		out = append(out, b)
	}
	return out
}
