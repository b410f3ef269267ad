// Package lightpath is a simulator and systems library reproducing
// "A case for server-scale photonic connectivity" (HotNets '24): the
// LIGHTPATH server-scale photonic interconnect, the TPUv4-style
// direct-connect torus substrate it is evaluated against, the
// collective-communication algorithms and alpha-beta-r cost model of
// §4.1, and the failure-repair machinery of §4.2.
//
// The package is a thin facade over the internal implementation:
//
//	fabric, err := lightpath.New(lightpath.Options{Seed: 42})
//	plan, err := fabric.PlanAllReduce(allocation, sliceIndex, 64*lightpath.MB)
//	fmt.Printf("optical speedup: %.1fx\n", plan.Speedup())
//
// See the examples directory for runnable programs and DESIGN.md for
// the system inventory and per-experiment index.
package lightpath

import (
	"lightpath/internal/alloc"
	"lightpath/internal/core"
	"lightpath/internal/failure"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// Core fabric types.
type (
	// Fabric is a multi-accelerator server interconnected by
	// LIGHTPATH wafers.
	Fabric = core.Fabric
	// Options configures New.
	Options = core.Options
	// CollectivePlan compares a collective on electrical vs photonic
	// interconnects.
	CollectivePlan = core.CollectivePlan
	// SliceUtilization is one bar pair of the paper's Figure 5c.
	SliceUtilization = core.SliceUtilization
	// MoEConfig parameterizes the dynamic Mixture-of-Experts workload
	// of the paper's §5.
	MoEConfig = core.MoEConfig
	// MoEResult summarizes a MoE run.
	MoEResult = core.MoEResult
	// RepairComparison is the outcome of handling one chip failure
	// electrically and optically.
	RepairComparison = core.RepairComparison
	// ChaosPolicy configures failure detection and repair for a
	// fault-injected collective (Fabric.RunAllReduceUnderFault).
	ChaosPolicy = core.ChaosPolicy
	// ChaosOutcome reports one fault-injected AllReduce run: whether
	// the math survived, the MTTR split, and the blast radii.
	ChaosOutcome = core.ChaosOutcome
)

// Torus substrate types.
type (
	// Shape is a torus/slice extent vector, e.g. Shape{4, 4, 4}.
	Shape = torus.Shape
	// Coord is a chip position.
	Coord = torus.Coord
	// Torus is a direct-connect accelerator torus.
	Torus = torus.Torus
	// Slice is a tenant's sub-torus.
	Slice = torus.Slice
	// Allocation is a set of slices on one torus.
	Allocation = torus.Allocation
	// BlastRadiusStats compares the fault policies' blast radii.
	BlastRadiusStats = failure.BlastRadiusStats
)

// Circuit management types (Fabric.Circuits()).
type (
	// CircuitRequest asks for an optical circuit between two chips.
	CircuitRequest = route.Request
	// Circuit is an established chip-to-chip optical circuit.
	Circuit = route.Circuit
	// CircuitAllocator establishes and releases circuits.
	CircuitAllocator = route.Allocator
)

// Data size and time units.
type (
	// Bytes is a data size.
	Bytes = unit.Bytes
	// Seconds is a simulated duration.
	Seconds = unit.Seconds
)

// Re-exported size constants.
const (
	KB = unit.KB
	MB = unit.MB
	GB = unit.GB
)

// New builds a photonic fabric; zero-valued options take the paper's
// defaults (TPUv4 4x4x4 rack on two 32-tile wafers).
func New(opts Options) (*Fabric, error) { return core.New(opts) }

// NewTorus builds a direct-connect torus of the given shape.
//
// Part of the public facade beside New: module users build tori
// without importing internal packages.
func NewTorus(shape Shape) *Torus { return torus.New(shape) }

// NewAllocation validates tenant slices on a torus.
func NewAllocation(t *Torus, slices []*Slice) (*Allocation, error) {
	return torus.NewAllocation(t, slices)
}

// UtilizationReport computes Figure 5c for an allocation.
func UtilizationReport(a *Allocation) []SliceUtilization {
	return core.UtilizationReport(a)
}

// DefaultMoEConfig is a small MoE inference setting.
func DefaultMoEConfig() MoEConfig { return core.DefaultMoEConfig() }

// DefaultChaosPolicy is the failure-lifecycle default: 10 us
// detection, width-4 repair circuits.
func DefaultChaosPolicy() ChaosPolicy { return core.DefaultChaosPolicy() }

// BlastRadius sweeps chip failures over a TPUv4-scale cluster and
// compares the rack-granularity electrical policy against
// server-granularity optical repair.
func BlastRadius() BlastRadiusStats { return core.BlastRadius() }

// Fig5bAllocation reconstructs the paper's Figure 5b rack: four
// tenants fully occupying a 4x4x4 cube.
func Fig5bAllocation() (*Torus, *Allocation, error) { return alloc.Fig5b() }
