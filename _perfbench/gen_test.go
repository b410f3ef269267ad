package main

import (
	"slices"
	"testing"

	"lightpath/internal/ctrl"
)

// churnStream drives a generator through an in-process handler and
// returns the requests it issued.
func churnStream(t *testing.T, seed uint64, n int) []ctrl.Request {
	t.Helper()
	cfg := ctrl.DefaultConfig()
	cfg.Seed = seed
	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := ctrl.NewHandler(srv, wireTick)
	gen := newChurnGen(seed, srv.Allocator().Rack().NumChips())
	var reqs []ctrl.Request
	for i := 0; i < n; i++ {
		req := gen.next()
		gen.observe(req, h.Submit(req))
		reqs = append(reqs, req)
	}
	return reqs
}

func TestChurnGenDeterministicPerSeed(t *testing.T) {
	a, b := churnStream(t, 2024, 5000), churnStream(t, 2024, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different request streams")
	}
	if c := churnStream(t, 7, 5000); slices.Equal(a, c) {
		t.Fatal("seeds 2024 and 7 produced the same request stream")
	}
}

func TestChurnGenMix(t *testing.T) {
	counts := map[ctrl.Op]int{}
	for _, r := range churnStream(t, 2024, 20000) {
		counts[r.Op]++
		if r.Op == ctrl.OpEstablish && (r.A == r.B || r.Width != wireWidth) {
			t.Fatalf("bad establish %+v", r)
		}
	}
	frac := func(op ctrl.Op) float64 { return float64(counts[op]) / 20000 }
	if f := frac(ctrl.OpHealth); f < 0.005 || f > 0.015 {
		t.Errorf("health share %.3f, want about 1%%", f)
	}
	if f := frac(ctrl.OpReroute); f < 0.02 || f > 0.06 {
		t.Errorf("reroute share %.3f, want a few percent", f)
	}
	if counts[ctrl.OpRelease] == 0 || counts[ctrl.OpEstablish] == 0 {
		t.Errorf("stream lacks establishes or releases: %v", counts)
	}
}

func TestChurnGenDrainReleasesEverything(t *testing.T) {
	cfg := ctrl.DefaultConfig()
	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := ctrl.NewHandler(srv, wireTick)
	gen := newChurnGen(1, srv.Allocator().Rack().NumChips())
	for i := 0; i < 3000; i++ {
		req := gen.next()
		gen.observe(req, h.Submit(req))
	}
	gen.draining = true
	for len(gen.held) > 0 {
		req := gen.next()
		if resp := h.Submit(req); resp.Status != ctrl.StatusOK {
			t.Fatalf("drain release refused: %v", resp.Status)
		}
	}
	if n := srv.Allocator().NumCircuits(); n != 0 {
		t.Fatalf("%d circuits live after the drain", n)
	}
	if gen.next().Op != ctrl.OpHealth {
		t.Fatal("drained generator should ask for health")
	}
}
