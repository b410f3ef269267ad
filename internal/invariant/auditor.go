package invariant

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"lightpath/internal/route"
)

// DefaultStride is how many mutations a Sampled auditor lets pass
// between periodic full passes. It is chosen so the amortized full pass
// costs no more than a delta check: a pass over the controller
// campaign's ~110 circuits takes ~25 µs, and 25 µs / 256 ≈ 0.1 µs per
// mutation against 0.3 µs or more for the delta check itself
// (DESIGN.md, "Cost model of one delta check").
const DefaultStride = 256

// maxRecorded bounds the violations an auditor retains verbatim; the
// count keeps climbing past it so a runaway defect cannot exhaust
// memory with repeated reports.
const maxRecorded = 64

// agreement names the violation a Paranoid auditor reports when its
// delta check names an invariant the full pass does not: a defect of
// the auditor, not of the audited state.
const agreement = "auditor-agreement"

// Auditor checks one allocator against the invariant registry. It is
// attached through the allocator's audit hook, so it observes every
// completed top-level mutation; Audit runs a full pass on demand.
// An Auditor is not safe for concurrent use — like the allocator it
// watches, it belongs to a single trial.
type Auditor struct {
	alloc      *route.Allocator
	mode       Mode
	mutations  int
	audits     int
	fullPasses int
	count      int
	recorded   []Violation
	// sh is the shadow both check paths share. It is built lazily by
	// the first full pass, so Attach allocates nothing for it, and a
	// warm auditor checks without allocating.
	sh shadow
}

// Attach builds an auditor in the given mode and registers it as the
// allocator's audit hook (except in Off mode, which leaves the hook
// untouched so the hot path stays a nil check).
func Attach(a *route.Allocator, mode Mode) *Auditor {
	d := &Auditor{alloc: a, mode: mode}
	if mode != Off {
		a.SetAuditHook(d.Mutated)
	}
	return d
}

// Mutated checks one completed top-level mutation as the mode directs.
// It is the function Attach installs as the allocator's audit hook; a
// caller that wraps the hook (to time audits, say) forwards to it, and
// must forward every mutation: a delta check assumes the shadow has
// seen all of them.
func (d *Auditor) Mutated(op string) {
	d.mutations++
	if d.mode != Sampled && d.mode != Paranoid {
		return
	}
	d.audits++
	j := d.alloc.Journal()
	if !d.sh.valid || j.Wide || (d.mode == Sampled && d.mutations%DefaultStride == 0) {
		d.record(d.full(op))
		return
	}
	if !d.sh.apply(d.alloc, j) {
		d.record(d.full(op))
		return
	}
	delta := d.sh.collect(op)
	if d.mode == Sampled {
		d.record(delta)
		return
	}
	full := d.full(op)
	d.record(full)
	d.record(disagreements(op, delta, full))
}

// disagreements reports each delta violation whose invariant the full
// pass over the same state does not name.
func disagreements(op string, delta, full []Violation) []Violation {
	var out []Violation
	for _, v := range delta {
		if !slices.ContainsFunc(full, func(f Violation) bool { return f.Invariant == v.Invariant }) {
			out = append(out, Violation{Invariant: agreement, Op: op,
				Detail: fmt.Sprintf("delta check reported %s, the full pass did not", v)})
		}
	}
	return out
}

// Audit runs a full pass immediately, regardless of mode, and returns
// the violations it found.
func (d *Auditor) Audit(op string) []Violation {
	d.audits++
	fresh := d.full(op)
	d.record(fresh)
	return fresh
}

// full runs the full pass, rebuilding the shadow.
func (d *Auditor) full(op string) []Violation {
	d.fullPasses++
	d.sh.rebuild(d.alloc)
	return d.sh.collect(op)
}

// record tallies fresh violations on the auditor and process-wide.
func (d *Auditor) record(fresh []Violation) {
	if len(fresh) == 0 {
		return
	}
	d.count += len(fresh)
	if room := maxRecorded - len(d.recorded); room > 0 {
		n := len(fresh)
		if n > room {
			n = room
		}
		d.recorded = append(d.recorded, fresh[:n]...)
	}
	recordGlobal(fresh)
}

// Count returns the total violations found over the auditor's life.
func (d *Auditor) Count() int { return d.count }

// Audits returns how many mutations (and on-demand Audit calls) the
// auditor has checked.
func (d *Auditor) Audits() int { return d.audits }

// Err returns nil when the auditor has seen no violation, and
// otherwise an error wrapping ErrViolated that names the first one.
func (d *Auditor) Err() error {
	if d.count == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d violation(s), first: %s", ErrViolated, d.count, d.recorded[0])
}

// defaultMode is the process-wide mode layers like core consult when
// building fabrics; tests flip it to Paranoid in TestMain.
var defaultMode atomic.Int32

// SetDefaultMode sets the process-wide default audit mode and returns
// the previous one.
//
// Public as part of the cross-package test harness: TestMain in core,
// experiments and cmd/lightpath-sim raises the default to Paranoid.
func SetDefaultMode(m Mode) Mode {
	return Mode(defaultMode.Swap(int32(m)))
}

// DefaultMode returns the process-wide default audit mode (Off unless
// something raised it).
func DefaultMode() Mode { return Mode(defaultMode.Load()) }

// The global tally aggregates violations across every auditor in the
// process, so a test binary can assert "zero violations anywhere"
// after fanning trials across goroutines.
var (
	globalMu       sync.Mutex
	globalCount    int
	globalRecorded []Violation
)

func recordGlobal(vs []Violation) {
	globalMu.Lock()
	defer globalMu.Unlock()
	globalCount += len(vs)
	if room := maxRecorded - len(globalRecorded); room > 0 {
		n := len(vs)
		if n > room {
			n = room
		}
		globalRecorded = append(globalRecorded, vs[:n]...)
	}
}

// GlobalCount returns the process-wide violation total.
//
// Public as part of the cross-package test harness: TestMain in core,
// experiments and cmd/lightpath-sim asserts it stays zero.
func GlobalCount() int {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalCount
}

// GlobalViolations returns a copy of the retained process-wide
// violations.
//
// Public as part of the cross-package test harness: TestMain in core,
// experiments and cmd/lightpath-sim reports the first one.
func GlobalViolations() []Violation {
	globalMu.Lock()
	defer globalMu.Unlock()
	return append([]Violation(nil), globalRecorded...)
}

// ResetGlobal clears the process-wide tally; tests that provoke
// violations on purpose call it before handing control back.
//
// Public as part of the cross-package test harness.
func ResetGlobal() {
	globalMu.Lock()
	defer globalMu.Unlock()
	globalCount = 0
	globalRecorded = nil
}
