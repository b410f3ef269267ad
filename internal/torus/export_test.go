package torus

import "sort"

// Test-only measurements and topology queries: production code never
// calls them, so they live in the test build.

// Remove un-records one use of each link, deleting entries that reach
// zero.
func (u LinkUse) Remove(links []Link) {
	for _, l := range links {
		if u[l] <= 1 {
			delete(u, l)
		} else {
			u[l]--
		}
	}
}

// MaxCongestion returns the highest per-link use count (0 when empty).
// A value above 1 means congestion.
func (u LinkUse) MaxCongestion() int {
	max := 0
	for _, n := range u {
		if n > max {
			max = n
		}
	}
	return max
}

// CongestedLinks returns the links used more than once, sorted for
// deterministic output.
func (u LinkUse) CongestedLinks() []Link {
	var out []Link
	for l, n := range u {
		if n > 1 {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Overlap returns the links present in both sets (each link counted
// once), sorted for deterministic output.
func Overlap(a, b []Link) []Link {
	seen := make(map[Link]bool, len(a))
	for _, l := range a {
		seen[l] = true
	}
	var out []Link
	emitted := make(map[Link]bool)
	for _, l := range b {
		if seen[l] && !emitted[l] {
			out = append(out, l)
			emitted[l] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// RingToLinks converts an ordered chip cycle into its directed links,
// including the closing link from the last chip back to the first.
func RingToLinks(ring []int) []Link {
	if len(ring) < 2 {
		return nil
	}
	links := make([]Link, len(ring))
	for i := range ring {
		links[i] = Link{From: ring[i], To: ring[(i+1)%len(ring)]}
	}
	return links
}

// NumRacks returns the rack count.
func (c *Cluster) NumRacks() int { return c.numRacks }

// Isolate reprograms the OCSes so the rack is standalone along
// dimension d again, splicing its former neighbors to each other.
func (c *Cluster) Isolate(d, rack int) {
	n, p := c.next[d][rack], c.prev[d][rack]
	if n == rack {
		return
	}
	if n == p && n != rack {
		// Two-rack loop: the other rack becomes standalone too.
		c.next[d][n] = n
		c.prev[d][n] = n
	} else {
		c.next[d][p] = n
		c.prev[d][n] = p
	}
	c.next[d][rack] = rack
	c.prev[d][rack] = rack
}

// NeighborGlobal returns the global chip adjacent to g along
// dimension d in direction dir (+1/-1), following OCS splices across
// rack faces.
func (c *Cluster) NeighborGlobal(g, d, dir int) int {
	rack, chip := c.Split(g)
	co := c.rack.Coord(chip)
	e := c.rack.Extent(d)
	v := co[d] + dir
	switch {
	case v >= e:
		co[d] = 0
		return c.GlobalID(c.next[d][rack], c.rack.Index(co))
	case v < 0:
		co[d] = e - 1
		return c.GlobalID(c.prev[d][rack], c.rack.Index(co))
	default:
		co[d] = v
		return c.GlobalID(rack, c.rack.Index(co))
	}
}

// GlobalNeighbors returns every chip adjacent to g, over all
// dimensions and directions. Extent-1 dimensions contribute no
// neighbors for standalone racks, but do cross racks when spliced.
func (c *Cluster) GlobalNeighbors(g int) []int {
	var out []int
	for d := 0; d < c.rack.Dims(); d++ {
		for _, dir := range [2]int{+1, -1} {
			n := c.NeighborGlobal(g, d, dir)
			if n != g {
				out = append(out, n)
			}
		}
	}
	return out
}

// InterRack reports whether a global link crosses racks (and hence
// traverses an OCS and optical fiber rather than on-board wires).
func (c *Cluster) InterRack(l Link) bool {
	ra, _ := c.Split(l.From)
	rb, _ := c.Split(l.To)
	return ra != rb
}

// GlobalLinkDim returns the dimension of a global link, or -1 if the
// chips are not adjacent in the spliced topology.
func (c *Cluster) GlobalLinkDim(l Link) int {
	for d := 0; d < c.rack.Dims(); d++ {
		for _, dir := range [2]int{+1, -1} {
			if c.NeighborGlobal(l.From, d, dir) == l.To {
				return d
			}
		}
	}
	return -1
}
