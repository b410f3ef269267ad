package invariant

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lightpath/internal/route"
)

// DefaultStride is how many mutations a Sampled auditor lets pass
// between full audits.
const DefaultStride = 16

// maxRecorded bounds the violations an auditor retains verbatim; the
// count keeps climbing past it so a runaway defect cannot exhaust
// memory with repeated reports.
const maxRecorded = 64

// Auditor runs the invariant registry against one allocator. It is
// attached through the allocator's audit hook, so it observes every
// completed top-level mutation; Audit runs a pass on demand.
// An Auditor is not safe for concurrent use — like the allocator it
// watches, it belongs to a single trial.
type Auditor struct {
	alloc     *route.Allocator
	mode      Mode
	stride    int
	mutations int
	audits    int
	count     int
	recorded  []Violation
	// ctx is the audit loop's reusable working storage; a clean pass
	// over a warm auditor allocates nothing.
	ctx checkCtx
}

// Attach builds an auditor in the given mode and registers it as the
// allocator's audit hook (except in Off mode, which leaves the hook
// untouched so the hot path stays a nil check).
func Attach(a *route.Allocator, mode Mode) *Auditor {
	d := &Auditor{alloc: a, mode: mode, stride: DefaultStride}
	if mode != Off {
		a.SetAuditHook(d.Mutated)
	}
	return d
}

// Mutated notes one completed top-level mutation and, depending on
// the mode, runs the registry. It is the function Attach installs as
// the allocator's audit hook; a caller that wraps the hook (to time
// audits, say) forwards to it.
func (d *Auditor) Mutated(op string) {
	d.mutations++
	switch d.mode {
	case Paranoid:
	case Sampled:
		if d.mutations%d.stride != 0 {
			return
		}
	default:
		return
	}
	d.run(op)
}

// Audit runs the full registry immediately, regardless of mode, and
// returns the violations found by this pass.
func (d *Auditor) Audit(op string) []Violation { return d.run(op) }

func (d *Auditor) run(op string) []Violation {
	d.audits++
	var fresh []Violation
	d.ctx.load(d.alloc)
	for _, inv := range registry {
		for _, detail := range inv.check(d.alloc, &d.ctx) {
			fresh = append(fresh, Violation{Invariant: inv.name, Op: op, Detail: detail})
		}
	}
	if len(fresh) == 0 {
		return nil
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
	return fresh
}

// Count returns the total violations found over the auditor's life.
func (d *Auditor) Count() int { return d.count }

// Audits returns how many full registry passes have run.
func (d *Auditor) Audits() int { return d.audits }

// Violations returns a copy of the retained violations (at most
// maxRecorded; Count reports the true total).
func (d *Auditor) Violations() []Violation {
	return append([]Violation(nil), d.recorded...)
}

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
