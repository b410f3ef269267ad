package wafer

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
)

// refKey and refDegradation are a map-based reference model of a
// wafer's fault-induced degradation: one entry per touched position,
// absent positions carrying no loss.
type refKey struct {
	o         Orient
	lane, pos int
}

type refDegradation map[refKey]float64

func (m refDegradation) span(o Orient, lane int, span Interval) []float64 {
	var out []float64
	for pos := span.Lo; pos <= span.Hi; pos++ {
		out = append(out, m[refKey{o, lane, pos}])
	}
	return out
}

func (m refDegradation) extraLossDB(o Orient, lane int, span Interval) float64 {
	total := 0.0
	for _, db := range m.span(o, lane, span) {
		total += db
	}
	return total
}

func (m refDegradation) severed(o Orient, lane int, span Interval) bool {
	for _, db := range m.span(o, lane, span) {
		if db >= SeveredSegmentDB {
			return true
		}
	}
	return false
}

// encodeRef encodes w's tiles and lanes with the degradation of m in
// sorted key order, the wafer snapshot format.
func encodeRef(w *Wafer, m refDegradation) []byte {
	var e snapshot.Encoder
	e.Len(len(w.tiles))
	for _, t := range w.tiles {
		t.encodeState(&e)
	}
	encodeLanes(&e, w.hLanes)
	encodeLanes(&e, w.vLanes)
	keys := make([]refKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.o != b.o {
			return a.o < b.o
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.pos < b.pos
	})
	e.Len(len(keys))
	for _, k := range keys {
		e.Bool(k.o == Horizontal)
		e.Int(k.lane)
		e.Int(k.pos)
		e.F64(m[k])
	}
	return e.Bytes()
}

func encodeWafer(w *Wafer) []byte {
	var e snapshot.Encoder
	w.encodeState(&e)
	return e.Bytes()
}

// randomPosition draws a valid bus-lane position of the wafer.
func randomPosition(r *rng.Rand, cfg Config) refKey {
	if r.Intn(2) == 0 {
		return refKey{Horizontal, r.Intn(cfg.Rows), r.Intn(cfg.Cols)}
	}
	return refKey{Vertical, r.Intn(cfg.Cols), r.Intn(cfg.Rows)}
}

// degradeStep applies one random degrade (0 dB, small, severing) or
// repair (often of a clean position) to both w and the reference.
func degradeStep(t *testing.T, r *rng.Rand, w *Wafer, m refDegradation) {
	t.Helper()
	k := randomPosition(r, w.cfg)
	if r.Intn(3) == 0 {
		if err := w.RepairSegment(k.o, k.lane, k.pos); err != nil {
			t.Fatal(err)
		}
		delete(m, k)
		return
	}
	db := []float64{0, 0.75, 4, SeveredSegmentDB}[r.Intn(4)]
	if err := w.DegradeSegment(k.o, k.lane, k.pos, db); err != nil {
		t.Fatal(err)
	}
	m[k] += db
}

// assertMatchesRef checks the wafer's count, snapshot bytes and span
// queries against the reference.
func assertMatchesRef(t *testing.T, r *rng.Rand, w *Wafer, m refDegradation) {
	t.Helper()
	if got := w.DegradedSegments(); got != len(m) {
		t.Fatalf("DegradedSegments = %d, reference has %d", got, len(m))
	}
	if got, want := encodeWafer(w), encodeRef(w, m); !bytes.Equal(got, want) {
		t.Fatalf("encodeState differs from the sorted-map encoding (%d vs %d bytes)", len(got), len(want))
	}
	for i := 0; i < 32; i++ {
		o, lanes, limit := Horizontal, w.cfg.Rows, w.cfg.Cols
		if r.Intn(2) == 0 {
			o, lanes, limit = Vertical, w.cfg.Cols, w.cfg.Rows
		}
		// Spans and lanes stray past the grid on both sides: positions
		// off it carry no loss.
		lane := r.Intn(lanes+2) - 1
		lo := r.Intn(limit+3) - 2
		span := Interval{Lo: lo, Hi: lo + r.Intn(limit+2) - 1}
		if got, want := w.SpanExtraLossDB(o, lane, span), m.extraLossDB(o, lane, span); got != want {
			t.Fatalf("SpanExtraLossDB(%s, %d, %v) = %g, reference %g", o, lane, span, got, want)
		}
		if got, want := w.SpanSevered(o, lane, span), m.severed(o, lane, span); got != want {
			t.Fatalf("SpanSevered(%s, %d, %v) = %v, reference %v", o, lane, span, got, want)
		}
	}
}

// TestDegradationMatchesMapReference drives seeded degrade/repair
// sequences — 0 dB faults, repeats on one position, repairs of clean
// positions — and demands the dense arrays answer every query and
// encode every snapshot exactly as the map reference does.
func TestDegradationMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		w, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := refDegradation{}
		assertMatchesRef(t, r, w, m)
		for step := 0; step < 300; step++ {
			degradeStep(t, r, w, m)
			assertMatchesRef(t, r, w, m)
		}
	}
}

// TestZeroDBDegradeCounts: a 0 dB fault still marks its position
// degraded, is encoded, and survives a snapshot round trip; repairing
// it (and then a clean position) brings the count back to zero.
func TestZeroDBDegradeCounts(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DegradeSegment(Vertical, 2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if w.DegradedSegments() != 1 {
		t.Fatalf("0 dB fault counted %d degraded segments, want 1", w.DegradedSegments())
	}
	fresh, _ := New(DefaultConfig())
	if err := fresh.restoreState(snapshot.NewDecoder(encodeWafer(w))); err != nil {
		t.Fatal(err)
	}
	if fresh.DegradedSegments() != 1 || !bytes.Equal(encodeWafer(fresh), encodeWafer(w)) {
		t.Fatal("0 dB degradation lost in the snapshot round trip")
	}
	for _, k := range []refKey{{Vertical, 2, 1}, {Horizontal, 0, 0}} {
		if err := w.RepairSegment(k.o, k.lane, k.pos); err != nil {
			t.Fatal(err)
		}
		if w.DegradedSegments() != 0 {
			t.Fatalf("after repairing %v: %d degraded segments", k, w.DegradedSegments())
		}
	}
}

// TestDegradationCloneAndRestoreIndependent: a clone and a restored
// copy carry the original's degradation byte for byte, and later
// degrades and repairs on any of the three leave the others alone.
func TestDegradationCloneAndRestoreIndependent(t *testing.T) {
	r := rng.New(11)
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := refDegradation{}
	for step := 0; step < 40; step++ {
		degradeStep(t, r, w, m)
	}
	clone := w.Clone()
	restored, _ := New(DefaultConfig())
	if err := restored.restoreState(snapshot.NewDecoder(encodeWafer(w))); err != nil {
		t.Fatal(err)
	}
	snap := encodeWafer(w)
	for _, c := range []*Wafer{clone, restored} {
		if !bytes.Equal(encodeWafer(c), snap) || c.DegradedSegments() != w.DegradedSegments() {
			t.Fatal("copy does not carry the original's degradation")
		}
	}
	cm := refDegradation{}
	for k, v := range m {
		cm[k] = v
	}
	rm := refDegradation{}
	for k, v := range m {
		rm[k] = v
	}
	for step := 0; step < 40; step++ {
		degradeStep(t, r, w, m)
		degradeStep(t, r, clone, cm)
		degradeStep(t, r, restored, rm)
		assertMatchesRef(t, r, w, m)
		assertMatchesRef(t, r, clone, cm)
		assertMatchesRef(t, r, restored, rm)
	}
}

// TestRestoreRejectsOffGridDegradation: a snapshot entry naming a lane
// or position outside the wafer is corruption, not a silent no-op.
func TestRestoreRejectsOffGridDegradation(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	for _, k := range []refKey{
		{Horizontal, cfg.Rows, 0},
		{Horizontal, 0, cfg.Cols},
		{Vertical, 0, -1},
		{Vertical, -1, 0},
	} {
		payload := encodeRef(w, refDegradation{k: 1})
		fresh, _ := New(cfg)
		if err := fresh.restoreState(snapshot.NewDecoder(payload)); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
			t.Fatalf("entry %v: err = %v, want ErrCorruptSnapshot", k, err)
		}
	}
}
