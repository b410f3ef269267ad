package snapshot

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }
