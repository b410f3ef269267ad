package collective

import (
	"fmt"
	"math"
)

// This file is the schedule interpreter: it executes a Schedule
// against real per-chip buffers so tests can prove that the generated
// communication pattern computes the mathematically correct
// ReduceScatter/AllGather/AllReduce result for arbitrary inputs — a
// DESIGN.md invariant.

// State holds each chip's buffer.
type State map[int][]float64

// NewState allocates an n-element buffer per chip, filled by fill
// (which receives the chip ID and element index).
//
// Public so schedule proofs in other packages (failure) build
// interpreter inputs the way this package's own do; the fault
// campaigns fill pooled buffers instead.
func NewState(chips []int, n int, fill func(chip, i int) float64) State {
	st := make(State, len(chips))
	for _, c := range chips {
		buf := make([]float64, n)
		if fill != nil {
			for i := range buf {
				buf[i] = fill(c, i)
			}
		}
		st[c] = buf
	}
	return st
}

// Clone deep-copies the state.
func (st State) Clone() State {
	out := make(State, len(st))
	for c, buf := range st {
		b := make([]float64, len(buf))
		copy(b, buf)
		out[c] = b
	}
	return out
}

// delivery is one staged transfer: the payload has been read from the
// pre-step state and waits to be applied.
type delivery struct {
	to      int
	lo      int
	reduce  bool
	payload []float64
}

// Interp is a reusable schedule interpreter. The per-step delivery
// list and the arena backing the staged payloads persist across calls,
// so steady-state execution does not allocate. A zero Interp is ready
// to use; it must not be shared between goroutines.
type Interp struct {
	deliveries []delivery
	payloads   []float64
}

// Execute validates the schedule and applies its steps in order.
// Within a step, all payloads are read from the pre-step state before
// any write is applied, so concurrent transfers behave as they would
// on real hardware where sends and receives of a step overlap in time.
// It is the whole-schedule entry point the interpreter's correctness
// proofs run; the fault campaigns step through ExecuteStep instead.
//
// Public so the failure package's proofs run it too.
func (ip *Interp) Execute(st State, s *Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for si := range s.Steps {
		if err := ip.ExecuteStep(st, s, si); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteStep applies step si only — the resume path of the failure
// experiments, which replay a schedule one step at a time around a
// fault. It checks chips and ranges against the live state but does
// not re-run Validate; callers validate the schedule once up front
// (and again after mutating it).
func (ip *Interp) ExecuteStep(st State, s *Schedule, si int) error {
	step := &s.Steps[si]
	ip.deliveries = ip.deliveries[:0]
	for ti, tr := range step.Transfers {
		src, ok := st[tr.From]
		if !ok {
			return fmt.Errorf("collective: step %d transfer %d reads unknown chip %d", si, ti, tr.From)
		}
		if _, ok := st[tr.To]; !ok {
			return fmt.Errorf("collective: step %d transfer %d writes unknown chip %d", si, ti, tr.To)
		}
		if tr.Range.Hi > len(src) {
			return fmt.Errorf("collective: step %d transfer %d range %v exceeds buffer %d", si, ti, tr.Range, len(src))
		}
		dst := tr.DstRange()
		if dst.Hi > len(st[tr.To]) {
			return fmt.Errorf("collective: step %d transfer %d destination %v exceeds buffer %d", si, ti, dst, len(st[tr.To]))
		}
		// The payload aliases the source buffer for now; it is staged
		// into the arena below only if some delivery would overwrite it.
		ip.deliveries = append(ip.deliveries, delivery{to: tr.To, lo: dst.Lo, reduce: tr.Reduce, payload: src[tr.Range.Lo:tr.Range.Hi]})
	}
	// Read-before-write: a payload must be staged only when another
	// transfer of the same step writes into its source range. Ring and
	// bucket schedules never do (a chip always forwards a chunk other
	// than the one it receives), so the common case applies payloads
	// straight from the source buffers with no copy.
	if ip.stepConflicts(st, step) {
		total := 0
		for _, tr := range step.Transfers {
			total += tr.Range.Len()
		}
		// The arena is sized up front so the payload subslices are
		// never invalidated by growth.
		if cap(ip.payloads) < total {
			ip.payloads = make([]float64, 0, total)
		}
		ip.payloads = ip.payloads[:0]
		for di := range ip.deliveries {
			d := &ip.deliveries[di]
			lo := len(ip.payloads)
			ip.payloads = append(ip.payloads, d.payload...)
			d.payload = ip.payloads[lo:]
		}
	}
	for _, d := range ip.deliveries {
		// Subslicing to the exact destination window lets the compiler
		// drop the per-element bounds checks in the reduce loop.
		dst := st[d.to][d.lo : d.lo+len(d.payload)]
		if d.reduce {
			for i, v := range d.payload {
				dst[i] += v
			}
		} else {
			copy(dst, d.payload)
		}
	}
	return nil
}

// stepConflicts reports whether any transfer of the step writes into a
// range another transfer of the same step reads.
func (ip *Interp) stepConflicts(st State, step *Step) bool {
	for i := range step.Transfers {
		tr := &step.Transfers[i]
		for j := range ip.deliveries {
			d := &ip.deliveries[j]
			if tr.From != d.to {
				continue
			}
			if tr.Range.Lo < d.lo+len(d.payload) && d.lo < tr.Range.Hi {
				return true
			}
		}
	}
	return false
}

// ReduceAcrossInto returns the element-wise sum of the chips' initial
// buffers — the reference result of an AllReduce with summation —
// written into dst, which is grown as needed and returned. The fault
// campaigns call it per trial and keep the reference buffer out of
// their steady-state allocation count.
func ReduceAcrossInto(dst []float64, st State, chips []int, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	for _, c := range chips {
		for i, v := range st[c] {
			dst[i] += v
		}
	}
	return dst
}

// CheckAllReduce verifies every chip's buffer equals the reference
// within floating-point tolerance.
func CheckAllReduce(st State, chips []int, ref []float64) error {
	for _, c := range chips {
		buf := st[c]
		if len(buf) != len(ref) {
			return fmt.Errorf("collective: chip %d buffer length %d, want %d", c, len(buf), len(ref))
		}
		for i, v := range buf {
			// Exact equality inline: most elements match bit for bit,
			// and the comparison avoids a call per element on what is
			// the campaigns' single hottest check.
			if v != ref[i] && !approxEqual(v, ref[i]) {
				return fmt.Errorf("collective: chip %d element %d = %v, want %v", c, i, v, ref[i])
			}
		}
	}
	return nil
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	// Max by comparison rather than math.Max: unlike Abs, Max is not an
	// intrinsic, and this runs per element of every checked buffer. NaN
	// still fails: diff is NaN whenever a or b is, and NaN <= x is
	// false for every x.
	diff := math.Abs(a - b)
	scale := math.Abs(a)
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}
