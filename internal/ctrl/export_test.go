package ctrl

// Test-only helpers: production code never calls them, so they live
// in the test build.

// QueueDepth returns the admitted-but-unfinished backlog as of the
// virtual clock.
func (s *Server) QueueDepth() int { return len(s.pending) }
