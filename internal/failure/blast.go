package failure

import (
	"lightpath/internal/torus"
)

// This file quantifies the paper's blast-radius argument (§4.2):
// "the current policy ... handles faults at rack granularity, leading
// to a large blast radius", versus "server-scale photonics enables
// routing around TPU chip failures to reduce the blast radius of a
// single chip failure to only the multi-accelerator server containing
// the failed chip."

// ElectricalBlastRadius returns the chips affected by a single chip
// failure under the TPUv4 policy ([60] in the paper): the job is
// migrated away from the entire rack, so every chip of the failed
// chip's rack is impacted.
//
// Public so each policy's chip set can be inspected per failure, not
// only through SweepBlastRadius's averages.
func ElectricalBlastRadius(c *torus.Cluster, failedGlobal int) []int {
	rack, _ := c.Split(failedGlobal)
	out := make([]int, 0, c.RackSize())
	for chip := 0; chip < c.RackSize(); chip++ {
		out = append(out, c.GlobalID(rack, chip))
	}
	return out
}

// OpticalBlastRadius returns the chips affected under server-scale
// photonic repair: optical circuits route around the failure, so only
// the multi-accelerator server containing the failed chip is
// impacted.
//
// Public so each policy's chip set can be inspected per failure, not
// only through SweepBlastRadius's averages.
func OpticalBlastRadius(c *torus.Cluster, failedGlobal int) []int {
	rack, chip := c.Split(failedGlobal)
	server := c.ServerOf(chip)
	var out []int
	for _, sc := range c.ServerChips(server) {
		out = append(out, c.GlobalID(rack, sc))
	}
	return out
}

// BlastRadiusStats summarizes a failure sweep.
type BlastRadiusStats struct {
	Failures       int
	ElectricalMean float64
	OpticalMean    float64
	// Ratio is ElectricalMean / OpticalMean — the blast-radius
	// shrinkage factor (16x for the paper's 64-chip racks of 4-chip
	// servers).
	Ratio float64
}

// SweepBlastRadius fails every chip of the cluster in turn and
// averages the two policies' blast radii.
func SweepBlastRadius(c *torus.Cluster) BlastRadiusStats {
	stats := BlastRadiusStats{Failures: c.Size()}
	var elec, opt int
	for g := 0; g < c.Size(); g++ {
		elec += len(ElectricalBlastRadius(c, g))
		opt += len(OpticalBlastRadius(c, g))
	}
	stats.ElectricalMean = float64(elec) / float64(c.Size())
	stats.OpticalMean = float64(opt) / float64(c.Size())
	if stats.OpticalMean > 0 {
		stats.Ratio = stats.ElectricalMean / stats.OpticalMean
	}
	return stats
}
