package wafer

import (
	"fmt"

	"lightpath/internal/phy"
	"lightpath/internal/unit"
)

// SwitchesPerTile is fixed by the hardware: "Each LIGHTPATH tile is
// equipped with four optical switches; each switch has a degree of
// 1x3" (§3).
const SwitchesPerTile = 4

// SwitchDegree is the output degree of each tile switch.
const SwitchDegree = 3

// Switch13 is one of a tile's four 1x3 optical switches, realized as
// a two-stage binary tree of Mach-Zehnder interferometers (Figure
// 2b): the first MZI selects output 0 versus the second stage, and
// the second MZI selects output 1 versus output 2. Programming the
// switch drives both stages; the switch is settled when the slower
// stage settles.
type Switch13 struct {
	stage [2]phy.MZI
	port  int
	// lastProgram is when the most recent Program was issued.
	lastProgram unit.Seconds
	// stuck marks a failed switch frozen in its current state: the
	// established path keeps working, but Program is refused.
	stuck bool
}

// Port returns the commanded output port (0, 1 or 2).
func (s *Switch13) Port() int { return s.port }

// Program commands the switch to route its input to the given output
// port at simulated time now.
func (s *Switch13) Program(port int, now unit.Seconds) error {
	if port < 0 || port >= SwitchDegree {
		return fmt.Errorf("wafer: switch port %d out of range [0, %d)", port, SwitchDegree)
	}
	if s.stuck {
		return fmt.Errorf("wafer: switch is stuck and cannot be reprogrammed")
	}
	// Stage 0: Bar selects port 0 directly; Cross forwards to stage 1.
	// Stage 1: Bar selects port 1; Cross selects port 2.
	if port == 0 {
		s.stage[0].Program(phy.Bar, now)
	} else {
		s.stage[0].Program(phy.Cross, now)
		if port == 1 {
			s.stage[1].Program(phy.Bar, now)
		} else {
			s.stage[1].Program(phy.Cross, now)
		}
	}
	s.port = port
	s.lastProgram = now
	return nil
}

// SettledAt returns when the switch output is stable after the most
// recent Program: both MZI stages drive concurrently, so it is one
// reconfiguration latency after the program time, not two.
func (s *Switch13) SettledAt() unit.Seconds {
	return s.lastProgram + phy.ReconfigLatency
}

// Tile is one LIGHTPATH tile with a chip stacked on it.
type Tile struct {
	Row, Col int

	// Switches are the tile's four 1x3 MZI switches.
	Switches [SwitchesPerTile]Switch13

	lasers       int // total lasers (wavelengths)
	serdesPorts  int // total SerDes ports
	lasersUsed   int
	lasersFailed int
	portsUsed    int
	chipFailed   bool
	capacity     unit.BitRate // per wavelength
}

func newTile(row, col int, cfg Config) *Tile {
	return &Tile{
		Row:         row,
		Col:         col,
		lasers:      cfg.LasersPerTile,
		serdesPorts: cfg.SerDesPortsPerTile,
		capacity:    cfg.WavelengthCapacity,
	}
}

// FreeLasers returns the number of unallocated, still-working
// wavelengths. Failed lasers are charged against free capacity first;
// when failures exceed the free pool, circuits already holding the
// remainder are over-committed and must be invalidated by the caller.
func (t *Tile) FreeLasers() int { return t.lasers - t.lasersUsed - t.lasersFailed }

// FreePorts returns the number of unallocated SerDes ports.
func (t *Tile) FreePorts() int { return t.serdesPorts - t.portsUsed }

// UsedLasers returns the wavelengths currently reserved by circuit
// endpoints at this tile — the ground truth the invariant auditor
// balances against the sum of established circuit widths.
func (t *Tile) UsedLasers() int { return t.lasersUsed }

// UsedPorts returns the SerDes ports currently reserved by circuit
// endpoints at this tile.
func (t *Tile) UsedPorts() int { return t.portsUsed }

// Reserve takes width wavelengths and one SerDes port for a circuit
// endpoint.
func (t *Tile) Reserve(width int) error {
	if err := t.reserveError(width); err != nil {
		return err
	}
	t.lasersUsed += width
	t.portsUsed++
	return nil
}

// CanReserve reports whether Reserve(width) would succeed, without
// reserving anything. The allocator asks before trying candidate
// paths, so an endpoint that would refuse every path costs one check.
func (t *Tile) CanReserve(width int) bool { return t.reserveError(width) == nil }

// reserveError is Reserve's admission test: nil exactly when Reserve
// would take the resources.
func (t *Tile) reserveError(width int) error {
	if width <= 0 {
		return fmt.Errorf("wafer: non-positive circuit width %d", width)
	}
	// Static sentinels on the capacity paths: endpoint contention is a
	// steady-state outcome under load, not an anomaly worth a fresh
	// formatted error per probe.
	if t.FreeLasers() < width {
		return ErrLasersExhausted
	}
	if t.FreePorts() < 1 {
		return ErrPortsExhausted
	}
	return nil
}

// Release returns a circuit endpoint's resources.
func (t *Tile) Release(width int) {
	t.lasersUsed -= width
	t.portsUsed--
	if t.lasersUsed < 0 || t.portsUsed < 0 {
		panic(fmt.Sprintf("wafer: tile (%d,%d) resource underflow", t.Row, t.Col))
	}
}
