package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunEachCommand(t *testing.T) {
	cases := map[string]string{
		"info":       "tiles per wafer",
		"fig3a":      "reconfiguration latency",
		"fig3b":      "reticle stitch loss",
		"fig4":       "waveguide density",
		"table1":     "beta ratio (elec/optics) = 3.00x",
		"table2":     "1.5x",
		"fig5":       "worst electrical bandwidth drop",
		"fig6a":      "IMPOSSIBLE",
		"fig6b":      "IMPOSSIBLE",
		"fig7":       "disjoint",
		"blast":      "16x",
		"moe":        "Mixture-of-Experts",
		"soak":       "Fleet soak",
		"hostnet":    "crossover",
		"tenants":    "rescued by optics",
		"ber":        "waterfall",
		"alltoall":   "reprogramming every step",
		"repair":     "Repairability sweep",
		"scheduler":  "offline optimal",
		"show":       "Figure 6a rack",
		"scale":      "larger tori",
		"topo":       "Topology demo",
		"rail":       "Rail fabric",
		"protocols":  "rendezvous",
		"moesweep":   "bytes/expert",
		"ablate":     "decentralized",
		"controller": "Controller load",
	}
	for cmd, want := range cases {
		var buf bytes.Buffer
		args := []string{cmd}
		if cmd == "fig3b" {
			args = append(args, "-samples", "2000")
		}
		if cmd == "rail" {
			// Sub-second geometry; the acceptance-scale default belongs
			// to `make rail-smoke` and the benchmarks.
			args = append(args, "-rails", "4", "-servers", "16", "-waves", "4")
		}
		if cmd == "controller" {
			// One trial here; the acceptance-scale campaign belongs to
			// `make controller-smoke` and the golden CSV.
			args = append(args, "-trials", "1")
		}
		if err := run(args, &buf); err != nil {
			t.Errorf("%s: %v", cmd, err)
			continue
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s output missing %q:\n%s", cmd, want, buf.String())
		}
	}
}

func TestRunSweepFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"table1", "-n", "1024"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4.10KB") {
		t.Fatalf("custom -n not honored:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"info", "-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	args := []string{"all", "-samples", "2000", "-rails", "4", "-servers", "16", "-waves", "4", "-trials", "2"}
	if raceEnabled {
		// Memory budget, not a blind spot: under the race detector the
		// default 16M-element buffer drives chaos past 7.5 GB, so pin
		// the size chaos-smoke uses. The same chaos code runs
		// Paranoid-audited under -race in internal/experiments.
		args = append(args, "-n", "262144")
	}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"Figure 3a", "Table 1", "Figure 7", "Ablation", "Controller load"} {
		if !strings.Contains(buf.String(), marker) {
			t.Errorf("all output missing %q", marker)
		}
	}
}

func TestParallelFlagOutputIdentical(t *testing.T) {
	// The -parallel flag must be invisible in the output: same bytes on
	// stdout and in the exported CSV either way.
	if raceEnabled {
		// Two full chaos campaigns don't fit the package's race-mode
		// timeout budget; the same parallel/sequential equivalence runs
		// under -race in internal/experiments (TestParallelMatchesSequential).
		t.Skip("covered under -race by internal/experiments")
	}
	outs := make(map[string]string, 2)
	csvs := make(map[string]string, 2)
	for _, par := range []string{"true", "false"} {
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := run([]string{"chaos", "-trials", "3", "-parallel=" + par, "-csv", dir}, &buf); err != nil {
			t.Fatalf("-parallel=%s: %v", par, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "chaos.csv"))
		if err != nil {
			t.Fatal(err)
		}
		outs[par] = buf.String()
		csvs[par] = string(data)
	}
	if outs["true"] != outs["false"] {
		t.Errorf("stdout differs between -parallel modes:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			outs["true"], outs["false"])
	}
	if csvs["true"] != csvs["false"] {
		t.Errorf("CSV differs between -parallel modes:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			csvs["true"], csvs["false"])
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"info", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, cmd := range []string{"fig3a", "sweep", "ber", "scheduler"} {
		if err := run([]string{cmd, "-csv", dir}, &buf); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, cmd+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: csv has %d lines", cmd, len(lines))
		}
	}
	// Non-tabular commands do not create files.
	if err := run([]string{"blast", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "blast.csv")); err == nil {
		t.Fatal("non-tabular command wrote a csv")
	}
}
