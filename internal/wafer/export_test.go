package wafer

import (
	"fmt"

	"lightpath/internal/unit"
)

// Test-only helpers: production code never calls them, so they live
// in the test build.

// TileByIndex returns tile i in row-major order.
func (w *Wafer) TileByIndex(i int) *Tile {
	if i < 0 || i >= len(w.tiles) {
		panic(fmt.Sprintf("wafer: tile index %d out of range", i))
	}
	return w.tiles[i]
}

// TileIndex converts (row, col) to the row-major index.
func (w *Wafer) TileIndex(row, col int) int { return row*w.cfg.Cols + col }

// EndpointBandwidth returns the bandwidth of a circuit of the given
// wavelength width terminating at this tile.
func (t *Tile) EndpointBandwidth(width int) unit.BitRate {
	return unit.BitRate(width) * t.capacity
}
