package invariant

import (
	"errors"
	"testing"

	"lightpath/internal/route"
	"lightpath/internal/snapshot"
)

func TestAuditorStateRoundTrip(t *testing.T) {
	orig := &Auditor{
		mutations: 17,
		audits:    5,
		count:     2,
		recorded: []Violation{
			{Invariant: "fiber-occupancy", Op: "establish", Detail: "row 3 over"},
			{Invariant: "endpoint-width", Op: "release", Detail: "chip 9 negative"},
		},
	}
	var e snapshot.Encoder
	orig.EncodeState(&e)

	restored := &Auditor{}
	d := snapshot.NewDecoder(e.Bytes())
	if err := restored.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if restored.Mutations() != 17 || restored.Audits() != 5 || restored.Count() != 2 {
		t.Fatalf("counters = %d/%d/%d, want 17/5/2",
			restored.Mutations(), restored.Audits(), restored.Count())
	}
	vs := restored.Violations()
	if len(vs) != 2 || vs[0] != orig.recorded[0] || vs[1] != orig.recorded[1] {
		t.Fatalf("violations = %+v", vs)
	}
	// Err() must render identically on both sides.
	if restored.Err().Error() != orig.Err().Error() {
		t.Fatalf("Err diverges: %v vs %v", restored.Err(), orig.Err())
	}
}

func TestAuditorRestoreRejectsCountWithoutRecord(t *testing.T) {
	var e snapshot.Encoder
	e.Int(1) // mutations
	e.Int(1) // audits
	e.Int(3) // count > 0...
	e.Len(0) // ...but nothing recorded: Err() would index recorded[0]
	err := (&Auditor{}).RestoreState(snapshot.NewDecoder(e.Bytes()))
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}

// TestRestoreRebuildsShadow checks a restored auditor does not trust
// the shadow it had before: the replayed allocator state may differ,
// so the next mutation runs a full pass.
func TestRestoreRebuildsShadow(t *testing.T) {
	a, aud := auditFixture(t, Sampled)
	c, err := a.Establish(route.Request{A: 2, B: 3, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(c)
	if aud.FullPasses() != 1 {
		t.Fatalf("%d full passes over two mutations, want 1", aud.FullPasses())
	}
	var e snapshot.Encoder
	aud.EncodeState(&e)
	if err := aud.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Establish(route.Request{A: 2, B: 3, Width: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if aud.FullPasses() != 2 || aud.Count() != 0 {
		t.Fatalf("after a restore: %d full passes, %d violations; want 2 and 0", aud.FullPasses(), aud.Count())
	}
}
