package alloc

import (
	"fmt"

	"lightpath/internal/torus"
)

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Remove releases a previously placed slice.
func (p *Placer) Remove(s *torus.Slice) {
	for i, placed := range p.slices {
		if placed == s {
			for _, chip := range s.Chips(p.t) {
				p.occupied[chip] = false
			}
			p.slices = append(p.slices[:i], p.slices[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("alloc: remove of unplaced slice %q", s.Name))
}
