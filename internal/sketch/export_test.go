package sketch

// Test-only helpers: production code never calls them, so they live
// in the test build.

// Seen returns how many items the stream has offered.
func (s *Reservoir[T]) Seen() uint64 { return s.seen }

// Merge absorbs another sketch built with the same k. The receiver
// afterward summarizes the concatenation of both streams; the donor
// is left untouched. It panics on mismatched k — merging sketches of
// different resolution is a construction bug.
func (q *Quantile) Merge(o *Quantile) {
	if o.k != q.k {
		panic("sketch: merging quantile sketches with different k")
	}
	q.count += o.count
	for h, level := range o.levels {
		for h >= len(q.levels) {
			q.levels = append(q.levels, make([]float64, 0, q.k))
		}
		q.levels[h] = append(q.levels[h], level...)
	}
	for h := 0; h < len(q.levels); h++ {
		q.compactFrom(h)
	}
}
