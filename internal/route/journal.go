package route

import "lightpath/internal/wafer"

// Journal is the footprint of one top-level mutation: the circuits it
// established and released, and every bus, fiber row, endpoint chip
// and switch it touched on the way, rolled-back commit attempts
// included. An established or released circuit stands for its own
// segments, fibers and endpoints; the journal lists separately only
// what the rest touched. The allocator resets it when the outermost
// operation begins and fills it as the operation runs, so when the
// audit hook fires it describes exactly the mutation that just
// completed. Its slices keep their capacity across operations, so a
// warm allocator records without allocating.
//
// The invariant auditor reads it to check a mutation in time
// proportional to what the mutation changed. It is read-only to
// everyone but the allocator.
type Journal struct {
	// Added and Removed are the circuits the operation established and
	// released, in order.
	Added, Removed []*Circuit
	// Buses, Fibers and Chips are the bus segments, fibers and
	// endpoint reservations that commit attempts allocated and then
	// rolled back when a later step failed.
	Buses  []Segment
	Fibers []wafer.FiberRef
	Chips  []int
	// Switches are the tile switches the operation programmed.
	Switches []SwitchRef
	// Wide marks an operation whose effects reach past the recorded
	// footprint — fault application and repair, fiber-row failure and
	// restoration change component health that every circuit crossing
	// the component depends on.
	Wide bool
}

// SwitchRef names one switch of the tile hosting a chip.
type SwitchRef struct {
	Chip, Switch int
}

// reset empties the journal for the next operation, keeping capacity.
// Circuit pointers are cleared so a released circuit is not kept
// alive by the journal of an operation long past.
func (j *Journal) reset() {
	clear(j.Added)
	clear(j.Removed)
	j.Added, j.Removed = j.Added[:0], j.Removed[:0]
	j.Buses, j.Fibers = j.Buses[:0], j.Fibers[:0]
	j.Chips, j.Switches = j.Chips[:0], j.Switches[:0]
	j.Wide = false
}

// Journal returns the footprint of the most recent top-level mutation.
// It is valid from the moment the audit hook fires until the next
// mutation begins.
func (a *Allocator) Journal() *Journal { return &a.journal }
